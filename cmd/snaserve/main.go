// Command snaserve hosts the static noise analysis engine as an HTTP
// server: clients POST designs in the snacheck JSON schema and receive
// per-net verdicts streamed back in completion order.
//
//	snaserve [-addr :8347] [-cache-dir DIR] [-lease-ttl 2m]
//	         [-max-inflight N] [-max-clusters N] [-max-body-bytes N]
//	         [-default-deadline D] [-max-deadline D] [-retry-after-cap D]
//	         [-fleet N] [-workers N] [-warm-start] [-predictor] [-feasibility]
//	         [-corner tt|ff|ss|fs|sf] [-nlcaps]
//	         [-rig-pool-rigs N] [-rig-pool-bytes N]
//
// Endpoints (see internal/serve for the full protocol):
//
//	POST /v1/analyze    analyse an embedded design; NDJSON (or SSE) stream
//	GET  /healthz       liveness probe
//	GET  /statsz        cache / store / engine / admission counters
//	POST /invalidate    drop all pooled compiled benches
//
// Analysis defaults match the snacheck CLI — macromodel victim model,
// alignment search on, 2 ps timestep, fail-fast error policy — and every
// request can override them (method, policy, align, dt_ps, deadline_ms,
// max_clusters, deterministic, warm_start, predictor, feasibility and
// nonlinear_caps fields of the
// request object, plus "corner" to analyse at a named operating corner —
// unknown names get a typed "bad_corner" 400, and per-corner cache and
// solver counters appear under "corners" in /statsz). With -feasibility
// (or the per-request knob) the
// aggressor-correlation filter prunes unrealizable noise scenarios and
// report records carry bounded-realistic margins; a design whose
// constraints are malformed or self-contradictory is rejected with a
// typed "bad_design" 400.
//
// -warm-start, -predictor, -feasibility, -nlcaps and -corner set the
// server-wide defaults of the matching request knobs (sim.Policy documents
// the two solver modes). An unknown -corner name is a usage error (exit
// 2), like every other bad flag.
//
// With -cache-dir several snaserve processes may share one directory: the
// persistent store is safe under concurrent writers, and cross-process
// build leases (TTL -lease-ttl) single-flight each characterisation so N
// cold servers perform each transistor-level sweep exactly once between
// them.
//
// Overload degrades gracefully: past -max-inflight concurrent requests
// the server answers 429 with a Retry-After hint that doubles while the
// server stays saturated (clamped at -retry-after-cap) and resets once a
// slot frees, designs beyond
// -max-clusters get 413, and a request whose deadline (its own
// deadline_ms, default -default-deadline, clamped to -max-deadline)
// expires receives the verdicts computed so far plus a terminal
// {"type":"terminal","error":{"code":"deadline"}} record.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight streams
// finish (bounded by -shutdown-grace), new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stanoise/internal/core"
	"stanoise/internal/serve"
	"stanoise/internal/sna"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "snaserve: %v\n", err)
		os.Exit(1)
	}
}

// run parses flags, builds the server and serves until SIGINT/SIGTERM.
func run() error {
	var analysis sna.Options
	analysis.RegisterFlags(flag.CommandLine)
	addr := flag.String("addr", ":8347", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent characterisation store directory (shareable between snaserve processes)")
	leaseTTL := flag.Duration("lease-ttl", 0, "cross-process build-lease time-to-live (0 = default 2m)")
	maxInFlight := flag.Int("max-inflight", 8, "concurrently admitted requests before 429")
	maxClusters := flag.Int("max-clusters", 0, "per-request cluster budget (0 = unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", 8<<20, "request body size limit in bytes")
	defaultDeadline := flag.Duration("default-deadline", 0, "analysis deadline for requests that name none (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "clamp on every request's deadline (0 = unclamped)")
	fleet := flag.Int("fleet", 0, "fleet-wide concurrent cluster evaluations across all requests (0 = GOMAXPROCS, -1 = unbounded)")
	workers := flag.Int("workers", 0, "per-request concurrent cluster workers (0 = GOMAXPROCS)")
	retryAfterCap := flag.Duration("retry-after-cap", 0, "clamp on the saturation-derived Retry-After hint (0 = default 8s)")
	rigPoolRigs := flag.Int("rig-pool-rigs", 0, "compiled benches retained per worker pool (0 = default)")
	rigPoolBytes := flag.Int64("rig-pool-bytes", 0, "estimated bytes of compiled benches retained per worker pool (0 = unbounded)")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long in-flight streams may finish after SIGINT/SIGTERM")
	flag.Parse()

	analysis.Workers, analysis.CacheDir = *workers, *cacheDir
	analysis.RigPoolLimits = core.RigPoolLimits{MaxRigs: *rigPoolRigs, MaxBytes: *rigPoolBytes}
	srv := serve.NewServer(serve.Config{
		Analysis:        analysis,
		MaxInFlight:     *maxInFlight,
		MaxClusters:     *maxClusters,
		MaxBodyBytes:    *maxBodyBytes,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		FleetWorkers:    *fleet,
		RetryAfterCap:   *retryAfterCap,
	})
	if err := srv.StoreError(); err != nil {
		fmt.Fprintf(os.Stderr, "snaserve: warning: %v (continuing without a persistent cache)\n", err)
	}
	if *leaseTTL > 0 {
		if st := srv.Store(); st != nil {
			st.SetLeaseTTL(*leaseTTL)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake smoke scripts and
	// tests wait for (it differs from -addr when the port was 0).
	fmt.Printf("snaserve: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

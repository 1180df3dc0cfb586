// Package serve implements the stanoise analysis server: an HTTP front end
// over the sna analysis engine that accepts designs in the snacheck JSON
// schema and streams per-net verdicts back in completion order.
//
// One process hosts many concurrent requests over shared machinery — one
// characterisation cache (optionally backed by a persistent store with
// cross-process build leases), one compiled-bench pool set, and one
// fleet-wide concurrency gate — so a multi-tenant server costs barely more
// than a single analysis, and N servers sharing a store directory
// characterise each artefact once between them.
//
// Endpoints:
//
//	POST /v1/analyze    stream verdicts for an embedded design
//	GET  /healthz       liveness probe
//	GET  /statsz        cache / store / engine / admission counters
//	POST /invalidate    drop all pooled compiled benches
//
// POST /v1/analyze responds with newline-delimited JSON (NDJSON) records,
// flushed as each cluster completes, or Server-Sent Events when the client
// sends "Accept: text/event-stream" (each record then rides in one data:
// frame). Record types:
//
//	{"type":"report","report":{...}}          one per analysed net (stable
//	                                          stanoise.NetReport schema)
//	{"type":"cluster_error","error":{...}}    one per failing cluster
//	{"type":"summary","summary":{...}}        terminal record of a run that
//	                                          ran to completion
//	{"type":"terminal","error":{"code":...}}  terminal record of a run cut
//	                                          short: "deadline", "canceled"
//	                                          or "internal"
//
// Requests rejected before analysis get a conventional JSON error body
// with a stable code (see RequestError); saturation returns 429 with a
// Retry-After header so overload degrades to client backoff, never to
// queue collapse. A design whose correlation constraints are malformed or
// self-contradictory is a "bad_design" 400, caught at validation — never a
// panic or a mid-stream failure.
//
// The per-request "feasibility" knob (default from Config.Analysis)
// enables the aggressor-correlation filter: report records then carry a
// "feasibility" object with the pruned-combination census and the
// bounded-realistic margin, and /statsz exposes the process-wide census
// under "feas".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/feas"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
)

// Config configures a Server. The zero value is usable: snacheck-matching
// analysis defaults, GOMAXPROCS fleet workers, and modest admission
// limits.
type Config struct {
	// Analysis supplies the shared analysis machinery and quality knobs:
	// Cache/Store/CacheDir (persistent tier), RigPools/RigPoolLimits,
	// Gate, Workers, the model-quality grids, and the server-wide defaults
	// of the per-request mode knobs: Policy (WarmStart and Predictor, see
	// sim.Policy), Feasibility, NonlinearCaps and Corner. Method, Align, Dt
	// and OnError are NOT taken from here: NewServer pins them to the
	// snacheck CLI defaults (macromodel, align on, 2 ps, fail-fast), and
	// requests override them.
	Analysis sna.Options
	// MaxInFlight bounds concurrently admitted requests; excess requests
	// get 429 + Retry-After immediately. Default 8.
	MaxInFlight int
	// MaxClusters rejects designs with more clusters (413) before any
	// analysis. 0 = unlimited.
	MaxClusters int
	// DefaultDeadline is the per-request analysis budget when the request
	// names none. 0 = no deadline.
	DefaultDeadline time.Duration
	// MaxDeadline clamps every request's deadline (including "none"
	// requests when DefaultDeadline is 0). 0 = unclamped.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds the request body. Default 8 MiB.
	MaxBodyBytes int64
	// FleetWorkers bounds concurrent cluster evaluations across ALL
	// in-flight requests (the fleet gate); ignored when Analysis.Gate is
	// set. Default GOMAXPROCS; negative = unbounded.
	FleetWorkers int
	// RetryAfterCap clamps the Retry-After hint on 429 responses. The hint
	// is derived from observed admission pressure — it doubles with every
	// consecutive rejection while the server stays saturated and resets to
	// 1 s as soon as a slot frees — so a persistently overloaded server
	// pushes clients into progressively longer backoff instead of inviting
	// a thundering retry herd every second. Default 8 s; values below 1 s
	// are raised to it.
	RetryAfterCap time.Duration
}

// Server is the stanoise analysis HTTP server; see the package comment
// for the protocol. Create one with NewServer and mount it on any
// http.Server (it implements http.Handler).
type Server struct {
	cfg   Config
	base  sna.Options // per-request template: shared machinery attached, knobs at their defaults
	cache *charlib.Cache
	store *charstore.Store // non-nil only when the server opened/was given a charstore tier
	pools *sna.PoolSet
	gate  sna.Gate

	storeErr error
	mux      *http.ServeMux
	sem      chan struct{}

	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
	expired   atomic.Int64

	// rejectStreak counts consecutive 429s since the last slot release —
	// the admission-pressure signal the Retry-After hint is derived from.
	rejectStreak atomic.Int64
}

// NewServer builds a server from the configuration, opening the
// persistent store named by cfg.Analysis.CacheDir if any. A store that
// cannot be opened degrades to memory-only caching (see Server.StoreError)
// — exactly like snacheck — rather than failing construction.
func NewServer(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RetryAfterCap < time.Second {
		cfg.RetryAfterCap = 8 * time.Second
	}
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight)}

	s.cache = cfg.Analysis.Cache
	if s.cache == nil {
		s.cache = charlib.NewCache()
		switch {
		case cfg.Analysis.Store != nil:
			s.cache.SetStore(cfg.Analysis.Store)
			s.store, _ = cfg.Analysis.Store.(*charstore.Store)
		case cfg.Analysis.CacheDir != "":
			store, err := charstore.Open(cfg.Analysis.CacheDir)
			if err != nil {
				s.storeErr = err
			} else {
				s.cache.SetStore(store)
				s.store = store
			}
		}
	}
	s.pools = cfg.Analysis.RigPools
	if s.pools == nil {
		s.pools = sna.NewPoolSet(cfg.Analysis.RigPoolLimits)
	}
	s.gate = cfg.Analysis.Gate
	if s.gate == nil && cfg.FleetWorkers >= 0 {
		n := cfg.FleetWorkers
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.gate = sna.NewGate(n)
	}

	s.base = cfg.Analysis
	s.base.Cache = s.cache
	s.base.RigPools = s.pools
	s.base.Gate = s.gate
	s.base.Store = nil
	s.base.CacheDir = ""
	s.base.Method, s.base.Align, s.base.Dt, s.base.OnError = core.Macromodel, true, 2e-12, sna.FailFast

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /invalidate", s.handleInvalidate)
	s.mux = mux
	return s
}

// StoreError reports why the configured cache directory could not be
// opened, or nil. The server serves memory-cached either way.
func (s *Server) StoreError() error { return s.storeErr }

// Store returns the persistent charstore tier the server opened (or was
// handed via Options.Store), or nil when serving memory-cached. Callers
// use it to tune the store — e.g. Store.SetLeaseTTL — after construction.
func (s *Server) Store() *charstore.Store { return s.store }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeRequestError emits the conventional pre-analysis JSON error body.
func writeRequestError(w http.ResponseWriter, rerr *RequestError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rerr.Status)
	json.NewEncoder(w).Encode(struct {
		Error *RequestError `json:"error"`
	}{rerr})
}

// handleAnalyze admits, decodes and runs one analysis request, streaming
// verdicts in completion order.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfter()))
		writeRequestError(w, &RequestError{
			Status: http.StatusTooManyRequests, Code: "overloaded",
			Message: fmt.Sprintf("server is at its %d-request admission limit", s.cfg.MaxInFlight),
		})
		return
	}
	defer func() {
		<-s.sem
		// A slot just freed: admission pressure is relieved, so the next
		// rejection (if any) starts the backoff ladder from 1 s again.
		s.rejectStreak.Store(0)
	}()
	s.accepted.Add(1)

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	preq, rerr := s.decodeRequest(r.Body)
	if rerr != nil {
		writeRequestError(w, rerr)
		return
	}

	ctx := r.Context() // client disconnect cancels the analysis mid-solve
	if preq.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, preq.deadline)
		defer cancel()
	}

	an := sna.NewAnalyzer(preq.design, preq.opts)

	sw := newStreamWriter(w, r)
	sw.begin()
	var (
		reports     []sna.NetReport
		clusterErrs int
		terminalErr error
	)
	for rep, err := range an.Stream(ctx) {
		if err == nil {
			if preq.deterministic {
				rep.ClearTiming()
			}
			reports = append(reports, rep)
			sw.record(reportRecord{Type: "report", Report: &rep})
			continue
		}
		var cerr *sna.ClusterError
		if errors.As(err, &cerr) {
			clusterErrs++
			sw.record(clusterErrorRecord{Type: "cluster_error", Error: cerr})
			continue
		}
		terminalErr = err
	}
	if terminalErr != nil {
		code := "internal"
		switch {
		case errors.Is(terminalErr, context.DeadlineExceeded):
			code = "deadline"
			s.expired.Add(1)
		case errors.Is(terminalErr, context.Canceled):
			code = "canceled"
			s.canceled.Add(1)
		}
		sw.record(terminalRecord{Type: "terminal", Error: terminalError{Code: code, Message: terminalErr.Error()}})
		return
	}
	s.completed.Add(1)
	sw.record(summaryRecord{Type: "summary", Summary: sna.Summarize(reports), Errors: clusterErrs})
}

// retryAfter derives the Retry-After hint (in seconds) for one rejection
// from the observed admission pressure: the hint doubles with each
// consecutive 429 — 1, 2, 4, ... — and is clamped at Config.RetryAfterCap.
// Every admitted request's completion resets the streak, so the hint
// tracks actual saturation rather than historical load.
func (s *Server) retryAfter() int64 {
	streak := s.rejectStreak.Add(1)
	cap := int64(s.cfg.RetryAfterCap / time.Second)
	hint := int64(1)
	for i := int64(1); i < streak && hint < cap; i++ {
		hint *= 2
	}
	if hint > cap {
		hint = cap
	}
	return hint
}

// handleHealthz is the liveness probe: the server is up and its mux is
// routing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleStatsz serialises a Stats snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// handleInvalidate drops every pooled compiled bench (see
// sna.PoolSet.Invalidate) — the explicit invalidation point after a cell
// library or tech card changes under a long-lived server.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	n := s.pools.Invalidate()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"dropped\":%d}\n", n)
}

// RequestStats counts the server's admission and completion outcomes
// since start.
type RequestStats struct {
	// Accepted counts requests admitted past the in-flight limit.
	Accepted int64 `json:"accepted"`
	// Rejected counts requests turned away with 429.
	Rejected int64 `json:"rejected"`
	// Completed counts analyses that ran to completion (including runs
	// with failing clusters under the continue policy).
	Completed int64 `json:"completed"`
	// Canceled counts analyses cut short by client disconnect.
	Canceled int64 `json:"canceled"`
	// DeadlineExpired counts analyses cut short by their deadline budget.
	DeadlineExpired int64 `json:"deadline_expired"`
	// InFlight is the number of requests currently admitted.
	InFlight int `json:"in_flight"`
}

// RigPoolStats summarises the shared compiled-bench pool set.
type RigPoolStats struct {
	// Hits counts bench compilations avoided by topology-class reuse.
	Hits int `json:"hits"`
	// Misses counts benches actually compiled.
	Misses int `json:"misses"`
	// Benches is the number of compiled benches currently resident.
	Benches int `json:"benches"`
	// Bytes estimates the resident benches' memory footprint.
	Bytes int64 `json:"bytes"`
}

// CornerStats is one corner's slice of the shared machinery counters: the
// characterisation cache's per-corner attribution plus the per-corner
// solver-work registry. A corner-matrix farm front-ending this server reads
// the block to see which corner is burning Newton iterations — and how much
// the adjacent-corner continuation is saving.
type CornerStats struct {
	// Cache attributes cache traffic to the corner of the requested card.
	Cache charlib.CacheStats `json:"cache"`
	// Sim aggregates the solver work characterisation sweeps spent under
	// the corner.
	Sim sim.Counters `json:"sim"`
}

// Stats is the /statsz document: everything an operator (or a test)
// needs to see the shared machinery working — cache effectiveness, engine
// solve counts, pooled benches, lease traffic and admission outcomes.
type Stats struct {
	// Requests counts admission and completion outcomes.
	Requests RequestStats `json:"requests"`
	// Cache is the shared characterisation cache's counters.
	Cache charlib.CacheStats `json:"cache"`
	// Sim is the process-wide solver-work snapshot (sim.Snapshot); the
	// cross-process zero-duplicate-characterisation assertion reads it.
	Sim sim.Counters `json:"sim"`
	// Feas is the process-wide feasibility-filter census: clusters
	// filtered, combinations pruned, scenarios evaluated.
	Feas feas.Stats `json:"feas"`
	// RigPools summarises the compiled-bench pool set.
	RigPools RigPoolStats `json:"rig_pools"`
	// Corners breaks cache traffic and solver work down by operating
	// corner ("nominal" for base-card runs). Absent until the first
	// characterisation sweep completes, which keeps the pre-corner /statsz
	// schema unchanged for processes that never touch the corner axis.
	Corners map[string]CornerStats `json:"corners,omitempty"`
	// Leases reports cross-process build-lease activity; absent without a
	// persistent store.
	Leases *charstore.LeaseStats `json:"leases,omitempty"`
	// StoreEntries is the persistent store's entry count; absent without
	// one.
	StoreEntries *int `json:"store_entries,omitempty"`
	// StoreError explains a cache directory that could not be opened.
	StoreError string `json:"store_error,omitempty"`
}

// Stats snapshots the server counters (what GET /statsz serialises).
func (s *Server) Stats() Stats {
	hits, misses := s.pools.Stats()
	st := Stats{
		Requests: RequestStats{
			Accepted:        s.accepted.Load(),
			Rejected:        s.rejected.Load(),
			Completed:       s.completed.Load(),
			Canceled:        s.canceled.Load(),
			DeadlineExpired: s.expired.Load(),
			InFlight:        len(s.sem),
		},
		Cache: s.cache.Stats(),
		Sim:   sim.Snapshot(),
		Feas:  feas.Snapshot(),
		RigPools: RigPoolStats{
			Hits: hits, Misses: misses,
			Benches: s.pools.Len(), Bytes: s.pools.Bytes(),
		},
	}
	cacheCorners := s.cache.CornerStats()
	simCorners := sim.SnapshotCorners()
	if len(cacheCorners) > 0 || len(simCorners) > 0 {
		st.Corners = make(map[string]CornerStats, len(cacheCorners)+len(simCorners))
		for tag, cs := range cacheCorners {
			e := st.Corners[tag]
			e.Cache = cs
			st.Corners[tag] = e
		}
		for tag, sc := range simCorners {
			e := st.Corners[tag]
			e.Sim = sc
			st.Corners[tag] = e
		}
	}
	if s.store != nil {
		ls := s.store.LeaseStats()
		st.Leases = &ls
		n := s.store.Len()
		st.StoreEntries = &n
	}
	if s.storeErr != nil {
		st.StoreError = s.storeErr.Error()
	}
	return st
}

// --- stream records ------------------------------------------------------

// reportRecord carries one analysed net's verdict.
type reportRecord struct {
	Type   string         `json:"type"`
	Report *sna.NetReport `json:"report"`
}

// clusterErrorRecord carries one failing cluster's typed error.
type clusterErrorRecord struct {
	Type  string            `json:"type"`
	Error *sna.ClusterError `json:"error"`
}

// summaryRecord terminates a run that ran to completion.
type summaryRecord struct {
	Type    string      `json:"type"`
	Summary sna.Summary `json:"summary"`
	Errors  int         `json:"errors,omitempty"`
}

// terminalError is the payload of a terminalRecord.
type terminalError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// terminalRecord terminates a run cut short (deadline, disconnect,
// internal error).
type terminalRecord struct {
	Type  string        `json:"type"`
	Error terminalError `json:"error"`
}

// streamWriter frames records as NDJSON lines or SSE data: events and
// flushes each one, so verdicts reach the client as they complete.
type streamWriter struct {
	w     http.ResponseWriter
	flush http.Flusher
	sse   bool
}

// newStreamWriter picks the framing from the request's Accept header.
func newStreamWriter(w http.ResponseWriter, r *http.Request) *streamWriter {
	sw := &streamWriter{w: w}
	sw.flush, _ = w.(http.Flusher)
	sw.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	return sw
}

// begin commits the response headers and the 200 status — after this the
// only way to report failure is an in-stream terminal record.
func (sw *streamWriter) begin() {
	if sw.sse {
		sw.w.Header().Set("Content-Type", "text/event-stream")
		sw.w.Header().Set("Cache-Control", "no-cache")
	} else {
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	sw.w.WriteHeader(http.StatusOK)
	if sw.flush != nil {
		sw.flush.Flush()
	}
}

// record writes one framed record. Write errors are deliberately dropped:
// they mean the client went away, which the analysis observes through its
// request context.
func (sw *streamWriter) record(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	if sw.sse {
		sw.w.Write([]byte("data: "))
	}
	sw.w.Write(b)
	if sw.sse {
		sw.w.Write([]byte("\n\n"))
	} else {
		sw.w.Write([]byte("\n"))
	}
	if sw.flush != nil {
		sw.flush.Flush()
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/serve"
	"stanoise/internal/sna"
)

// serveClients is the closed loop's client count: one per core of the
// 2-core machine the benchmark is sized for, each on its own connection.
const serveClients = 2

// requestKinds is the serve-mixed traffic mix.
var requestKinds = []struct {
	name  string
	share float64
	knobs map[string]any
}{
	{"realistic", 0.6, map[string]any{"feasibility": true}},
	{"pessimistic", 0.3, map[string]any{}},
	{"golden", 0.1, map[string]any{"method": "golden", "align": false}},
}

// serveRig is one in-process server on a loopback listener and the client
// that talks to it.
type serveRig struct {
	hs     *httptest.Server
	client *http.Client
}

func newServeRig(gate sna.Gate) *serveRig {
	cfg := serve.Config{Analysis: sna.Options{Workers: serveClients, Gate: gate}, FleetWorkers: serveClients}
	return &serveRig{
		hs: httptest.NewServer(serve.NewServer(cfg)),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients,
		}},
	}
}

func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
}

// reply is one analysed request as the client saw it.
type reply struct {
	latency, ttfb, stream time.Duration
	reports               []sna.NetReport
	digest                string // deterministic report bytes, sorted by cluster
}

// post sends one analyze request and checks the stream: a 200, report
// records only, then exactly one summary as the last record, with nets
// reports in all.
func (r *serveRig) post(ctx context.Context, body []byte, nets int) (reply, error) {
	var out reply
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.hs.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var first, summaryAt time.Time
	var summary *sna.Summary
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Now()
			if first.IsZero() {
				first = now
			}
			var rec struct {
				Type    string          `json:"type"`
				Report  *sna.NetReport  `json:"report"`
				Summary *sna.Summary    `json:"summary"`
				Error   json.RawMessage `json:"error"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return out, fmt.Errorf("bad record: %w", err)
			}
			switch {
			case summary != nil:
				return out, fmt.Errorf("%s record after the summary", rec.Type)
			case rec.Type == "report" && rec.Report != nil:
				out.reports = append(out.reports, *rec.Report)
			case rec.Type == "summary" && rec.Summary != nil:
				summary, summaryAt = rec.Summary, now
			default:
				return out, fmt.Errorf("%s record: %s", rec.Type, rec.Error)
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return out, rerr
		}
	}
	out.latency = time.Since(t0)
	if summary == nil {
		return out, errors.New("stream ended without a summary")
	}
	if len(out.reports) != nets || summary.Total != nets {
		return out, fmt.Errorf("%d reports, summary total %d, want %d", len(out.reports), summary.Total, nets)
	}
	out.ttfb, out.stream = first.Sub(t0), summaryAt.Sub(first)
	sorted := append([]sna.NetReport(nil), out.reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cluster < sorted[j].Cluster })
	out.digest, err = digestReports(sorted)
	return out, err
}

// statsz reads the server's counters through its HTTP endpoint.
func (r *serveRig) statsz(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.hs.URL+"/statsz", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// requestBody embeds a design and knobs in an analyze request.
func requestBody(d *sna.Design, knobs map[string]any) ([]byte, error) {
	body := map[string]any{"design": d}
	for k, v := range knobs {
		body[k] = v
	}
	return json.Marshal(body)
}

// runServe: an in-process serve.Server on a loopback listener under a
// closed loop of two clients with no think time. Each request analyses two
// clusters, a fixed pair out of a pool of seeded cluster variants; the
// seed draws the pair and the kind (60% realistic, 30% pessimistic, 10%
// golden without alignment). It exercises the request path, admission,
// the shared cache and rig pools, and golden sim transients, so it shows
// whether a change that helps batch throughput costs request latency.
func runServe(ctx context.Context, e *env) error {
	sc := e.cfg.scale
	pool, err := seededDesign("pool", sc.variants, e.cfg.seed)
	if err != nil {
		return err
	}
	pairs := len(pool.Clusters) / 2
	bodies := make([][]byte, 0, pairs*len(requestKinds)) // index pair*len(requestKinds)+kind
	for p := 0; p < pairs; p++ {
		d := *pool
		d.Name = fmt.Sprintf("pair%02d", p)
		d.Clusters = pool.Clusters[2*p : 2*p+2]
		for _, k := range requestKinds {
			b, err := requestBody(&d, k.knobs)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
	}
	// kindOf draws request i's (pair, kind) from the seed alone, so the
	// sequence does not depend on which client sends it.
	kindOf := func(i int) int {
		rng := rand.New(rand.NewPCG(e.cfg.seed, uint64(i)+1))
		p, u, k := rng.IntN(pairs), rng.Float64(), 0
		for u >= requestKinds[k].share && k < len(requestKinds)-1 {
			u -= requestKinds[k].share
			k++
		}
		return p*len(requestKinds) + k
	}

	var (
		digMu   sync.Mutex
		digests = map[int]string{}
	)
	// sameBytes checks that every request with the same body gets the
	// same deterministic report bytes, across servers too.
	sameBytes := func(key int, got string) {
		digMu.Lock()
		defer digMu.Unlock()
		if want, ok := digests[key]; !ok {
			digests[key] = got
		} else {
			e.chk.check(got == want, "request %d: report bytes differ between identical requests", key)
		}
	}

	var rig *serveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	err = e.setup(func() error {
		if rig != nil {
			rig.close()
		}
		if e.rec != nil {
			rig = newServeRig(newTracedGate(serveClients, e.rec))
		} else {
			rig = newServeRig(nil)
		}
		// Warm-up: every pair once realistic and once golden, two at a
		// time, so characterisation caches and the alignment and golden rig
		// pools are filled before timing.
		var warmup []int
		for key := range bodies {
			if kind := requestKinds[key%len(requestKinds)].name; kind == "realistic" || kind == "golden" {
				warmup = append(warmup, key)
			}
		}
		var next atomic.Int64
		errs := make([]error, serveClients)
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1) - 1); j < len(warmup) && errs[c] == nil; j = int(next.Add(1) - 1) {
					key := warmup[j]
					rep, err := rig.post(ctx, bodies[key], 2)
					if err != nil {
						errs[c] = fmt.Errorf("warm-up request %d: %w", key, err)
						continue
					}
					sameBytes(key, rep.digest)
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	before, err := rig.statsz(ctx)
	if err != nil {
		return err
	}

	var (
		mu                 sync.Mutex
		completed          int
		latMs              []float64
		tracedMs, plainMs  []float64
		ttfbPct, streamPct []float64
		next               atomic.Int64
		wg                 sync.WaitGroup
	)
	e.beginTimed()
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			track := fmt.Sprintf("client%d", c)
			for {
				i := int(next.Add(1) - 1)
				if (i >= sc.minRequests && time.Since(start) >= e.cfg.seconds) || ctx.Err() != nil {
					return
				}
				// A traced run alternates one-second slices without and
				// with tracing; the difference is the tracing overhead.
				traced := e.rec != nil && int(time.Since(start)/time.Second)%2 == 1
				e.rec.enable(traced)
				key := kindOf(i)
				end := e.rec.begin(track, "serve.request")
				rep, err := rig.post(ctx, bodies[key], 2)
				end(map[string]any{"id": i, "kind": requestKinds[key%len(requestKinds)].name})
				mu.Lock()
				e.attempted++
				if !e.chk.check(err == nil, "request %d: %v", i, err) {
					e.failed++
					mu.Unlock()
					continue
				}
				completed++
				ms := float64(rep.latency.Nanoseconds()) / 1e6
				latMs = append(latMs, ms)
				ttfbPct = append(ttfbPct, ratio(rep.ttfb.Seconds(), rep.latency.Seconds())*100)
				streamPct = append(streamPct, ratio(rep.stream.Seconds(), rep.latency.Seconds())*100)
				if traced {
					tracedMs = append(tracedMs, ms)
				} else {
					plainMs = append(plainMs, ms)
				}
				mu.Unlock()
				sameBytes(key, rep.digest)
				if traced {
					t0 := time.Now().Add(-rep.latency)
					for k := range rep.reports {
						stageSpans(e.rec, fmt.Sprintf("%s/net%d", track, k), t0, &rep.reports[k])
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	e.rec.enable(false)
	if err := e.endTimed(); err != nil {
		return err
	}
	after, err := rig.statsz(ctx)
	if err != nil {
		return err
	}

	e.rates = []float64{float64(completed) / wall.Seconds()}
	e.latencies = latMs
	a := &e.lay
	a.ops, a.nets = completed, 2*completed
	a.cache.Hits = after.Cache.Hits - before.Cache.Hits
	a.cache.Misses = after.Cache.Misses - before.Cache.Misses
	a.rigHits = after.RigPools.Hits - before.RigPools.Hits
	a.rigMisses = after.RigPools.Misses - before.RigPools.Misses
	a.rejected = after.Requests.Rejected - before.Requests.Rejected
	a.tracedMs, a.untracedMs = tracedMs, plainMs
	a.ttfbPct, a.streamPct = ttfbPct, streamPct
	// Traced worker time: the odd one-second slices of the phase, times
	// the fleet gate's two slots.
	for s := time.Second; s < wall; s += 2 * time.Second {
		a.workerTime += min(time.Second, wall-s) * serveClients
	}
	e.chk.check(e.attempted >= sc.minRequests, "only %d requests in the timed phase", e.attempted)

	// Accuracy through the server: the canonical design, alignment off,
	// once with the macromodel and once golden.
	acc := canonicalDesign(sc.variants)
	peaks := map[string]map[string]float64{}
	for _, method := range []string{"macromodel", "golden"} {
		body, err := requestBody(acc, map[string]any{"method": method, "align": false, "deterministic": true})
		if err != nil {
			return err
		}
		rep, err := rig.post(ctx, body, len(acc.Clusters))
		if err != nil {
			return fmt.Errorf("accuracy request (%s): %w", method, err)
		}
		peaks[method] = map[string]float64{}
		for _, r := range rep.reports {
			peaks[method][r.Cluster] = r.PeakV
		}
	}
	e.peakErrPct, err = maxPeakErr(peaks["macromodel"], peaks["golden"])
	return err
}

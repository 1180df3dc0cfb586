package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/feas"
	"stanoise/internal/sim"
)

// workload is one set of inputs the benchmark runs. run performs the
// workload's set-up, timed phase and output checks, filling the env.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) error
}

// workloads lists the benchmark's workloads; BENCHMARK.json names the same
// four, with the reason each exists.
var workloads = []workload{
	{"design-pessimistic", runDesignPessimistic},
	{"design-realistic-warmstore", runDesignWarmstore},
	{"charfarm-corners", runCharfarm},
	{"serve-mixed", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the generated inputs and the minimum sample counts.
type scale struct {
	clusters    int    // clusters of the seeded design (design workloads)
	accClusters int    // clusters of the canonical design behind peak_err_max_pct
	variants    int    // seeded cluster variants the serve-mixed requests draw from
	corners     string // standard corners of the farm
	mcCorners   int    // Monte Carlo corners of the farm
	setupReps   int    // set-ups per run; setup_s is their median

	minDesignPasses, minFarmPasses, minRequests int
}

// fullScale is the benchmark's own size. On a 2-core machine a design
// pass takes ~3 s (pessimistic) or ~0.4 s (warm store), a farm pass ~1.5 s
// and a request ~0.1 s, so a 15 s run clears every minimum.
var fullScale = scale{
	clusters: 48, accClusters: 48, variants: 32, corners: "ss,tt,ff", mcCorners: 2, setupReps: 3,
	minDesignPasses: 5, minFarmPasses: 3, minRequests: 200,
}

// config is one run's settings.
type config struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string // where a traced run writes its trace, profile and table
	workDir  string // parent of the run's scratch store directories
	scale    scale

	// tamper, when set, rewrites each pass digest before it is compared;
	// tests use it to show that a failed check fails the run.
	tamper func(pass int, digest string) string
}

// env collects what one workload run measures.
type env struct {
	name string
	cfg  config
	rec  *recorder // nil in an untraced run
	chk  checker

	setupS           []float64 // seconds per set-up
	rates            []float64 // items per second, one per pass (serve: one per run)
	passP50, passP95 []float64 // per-pass item latency percentiles, ms
	latencies        []float64 // ms per item over the whole timed phase
	attempted        int
	failed           int
	peakErrPct       float64

	lay    layerAcc
	timed0 timedStart
}

// layerAcc accumulates the per-layer counters of the timed phase.
type layerAcc struct {
	ops, nets          int // passes (or requests) and nets analysed
	sim                sim.Counters
	feas               feas.Stats
	cache              charlib.CacheStats
	rigHits, rigMisses int
	gets, getHits      int64
	puts               int64
	rejected           int64

	workerTime           time.Duration // traced passes: wall × concurrency
	tracedMs, untracedMs []float64     // pass walls (serve: request latencies)
	ttfbPct, streamPct   []float64     // serve: request phases as % of latency
	cpu                  map[string]float64
	gcShare              float64
}

// timedStart holds what beginTimed captured.
type timedStart struct {
	sim        sim.Counters
	feas       feas.Stats
	gc, cpu    float64
	profile    *os.File
	profileErr error
}

// checker collects failed correctness checks; any failure fails the run.
type checker struct {
	mu       sync.Mutex
	failures []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	if !ok {
		c.mu.Lock()
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
		c.mu.Unlock()
	}
	return ok
}

func (c *checker) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.failures...)
}

// tempDir makes a scratch directory for a store under the run's work
// directory.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.cfg.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.cfg.workDir, prefix+"-")
}

// setup runs fn cfg.scale.setupReps times and records each duration; the
// state fn leaves behind on its last call is the one the run uses.
func (e *env) setup(fn func() error) error {
	for i := 0; i < e.cfg.scale.setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// beginTimed marks the start of the timed phase: counters are read here
// and, in a traced run, the CPU profile starts.
func (e *env) beginTimed() {
	e.timed0 = timedStart{sim: sim.Snapshot(), feas: feas.Snapshot()}
	e.timed0.gc, e.timed0.cpu = gcCPU()
	if e.rec == nil {
		return
	}
	f, err := os.Create(e.tracePath("cpu.pprof"))
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	e.timed0.profile, e.timed0.profileErr = f, err
}

// endTimed closes the timed phase opened by beginTimed.
func (e *env) endTimed() error {
	e.lay.sim = sim.Snapshot().Sub(e.timed0.sim)
	e.lay.feas = feas.Snapshot().Sub(e.timed0.feas)
	gc, cpu := gcCPU()
	e.lay.gcShare = ratio(gc-e.timed0.gc, cpu-e.timed0.cpu) * 100
	if e.rec == nil {
		return nil
	}
	if e.timed0.profileErr != nil {
		return fmt.Errorf("cpu profile: %w", e.timed0.profileErr)
	}
	pprof.StopCPUProfile()
	if err := e.timed0.profile.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := os.ReadFile(e.timed0.profile.Name())
	if err != nil {
		return err
	}
	e.lay.cpu, err = packageShares(raw)
	return err
}

func (e *env) tracePath(suffix string) string {
	return filepath.Join(e.cfg.traceDir, fmt.Sprintf("%s.seed%d.%s", e.name, e.cfg.seed, suffix))
}

// pass is what one batch pass reports to timed.
type pass struct {
	items   int
	wall    time.Duration
	latMs   []float64 // per-item latencies
	workers int       // concurrency, for the traced worker time
}

// timed runs fn until the run has measured cfg.seconds and at least
// minPasses passes. In a traced run passes alternate untraced and traced, starting
// untraced, so the two kinds give the tracing overhead; a failed pass ends
// the phase.
func (e *env) timed(ctx context.Context, minPasses int, fn func(i int, traced bool) (pass, error)) {
	if e.rec != nil {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < e.cfg.seconds; i++ {
		traced := e.rec != nil && i%2 == 1
		e.rec.enable(traced)
		p, err := fn(i, traced)
		e.rec.enable(false)
		e.attempted += p.items
		if !e.chk.check(err == nil && ctx.Err() == nil, "pass %d: %v", i, err) {
			e.failed += p.items
			return
		}
		e.lay.ops++
		e.rates = append(e.rates, float64(p.items)/p.wall.Seconds())
		e.passP50 = append(e.passP50, percentile(p.latMs, 0.50))
		e.passP95 = append(e.passP95, percentile(p.latMs, 0.95))
		e.latencies = append(e.latencies, p.latMs...)
		ms := float64(p.wall.Nanoseconds()) / 1e6
		if traced {
			e.lay.tracedMs = append(e.lay.tracedMs, ms)
			e.lay.workerTime += p.wall * time.Duration(p.workers)
		} else {
			e.lay.untracedMs = append(e.lay.untracedMs, ms)
		}
	}
}

// checkDigest checks a pass digest against want, the reference digest or,
// when want is still empty, the first pass's, which it records.
func (e *env) checkDigest(what string, i int, want *string, got string) {
	if e.cfg.tamper != nil {
		got = e.cfg.tamper(i, got)
	}
	if *want == "" {
		*want = got
		return
	}
	e.chk.check(got == *want, "%s: pass %d digest %.12s differs from %.12s", what, i, got, *want)
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints for a workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd assembles the untraced run's metrics and the sample summaries
// behind them.
func (e *env) endToEnd() (map[string]metric, map[string]summary) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	detail := map[string]summary{
		"setup_s":     summarize(e.setupS),
		"items_per_s": summarize(e.rates),
	}
	if len(e.passP50) > 1 {
		detail["item_p50_ms"] = summarize(e.passP50)
		detail["item_p95_ms"] = summarize(e.passP95)
	}
	m := map[string]metric{
		"setup_s":          {detail["setup_s"].Median, "s"},
		"items_per_s":      {detail["items_per_s"].Median, "1/s"},
		"item_p50_ms":      {percentile(e.latencies, 0.50), "ms"},
		"item_p95_ms":      {percentile(e.latencies, 0.95), "ms"},
		"max_rss_mb":       {float64(ru.Maxrss) / 1024, "MB"},
		"peak_err_max_pct": {e.peakErrPct, "%"},
	}
	return m, detail
}

// cpuLayers are the packages whose flat CPU share a traced run reports.
var cpuLayers = []string{"sna", "core", "linalg", "sim", "device", "charlib", "charstore", "feas", "serve"}

// perLayer assembles the traced run's per-layer metrics. Counts are per
// operation (a pass, or a request for serve-mixed); busy shares are span
// time over the traced passes' worker time (wall × concurrency). A layer a
// workload does not reach reads 0.
func (e *env) perLayer() map[string]metric {
	a := &e.lay
	ops := float64(a.ops)
	perOp := func(v int64) metric { return metric{ratio(float64(v), ops), "count/op"} }
	busy := func(span string) metric {
		return metric{ratio(e.rec.busyTime(span).Seconds(), a.workerTime.Seconds()) * 100, "%"}
	}
	m := map[string]metric{
		"sna.build_pct":            busy("sna.build"),
		"core.models_pct":          busy("core.models"),
		"core.align_pct":           busy("core.align"),
		"core.eval_pct":            busy("core.eval"),
		"nrc.stage_pct":            busy("nrc.stage"),
		"feas.stage_pct":           busy("feas.stage"),
		"core.engine_runs":         perOp(a.sim.EngineRuns),
		"core.engine_runs_per_net": {ratio(float64(a.sim.EngineRuns), float64(a.nets)), "count/net"},
		"core.rigpool_hit_ratio":   {ratio(float64(a.rigHits), float64(a.rigHits+a.rigMisses)), "ratio"},
		"feas.combos":              perOp(a.feas.Combos),
		"feas.scenarios":           perOp(a.feas.Scenarios),
		"feas.prune_ratio":         {ratio(float64(a.feas.Pruned), float64(a.feas.Combos)), "ratio"},
		"charstore.gets":           perOp(a.gets),
		"charstore.get_hit_ratio":  {ratio(float64(a.getHits), float64(a.gets)), "ratio"},
		"charstore.get_pct":        busy("charstore.get"),
		"charstore.puts":           perOp(a.puts),
		"charstore.put_pct":        busy("charstore.put"),
		"charstore.lease_wait_pct": busy("charstore.lease_wait"),
		"charlib.misses":           perOp(int64(a.cache.Misses)),
		"charlib.hit_ratio":        {ratio(float64(a.cache.Hits), float64(a.cache.Hits+a.cache.Misses)), "ratio"},
		"sim.dc_solves":            perOp(a.sim.DC),
		"sim.transients":           perOp(a.sim.Transient),
		"sim.transient_steps":      perOp(a.sim.TransientSteps),
		"sim.newton_iters":         perOp(a.sim.NewtonIters),
		"sim.newton_per_solve":     {ratio(float64(a.sim.NewtonIters), float64(a.sim.DC+a.sim.TransientSteps)), "ratio"},
		"gc.cpu_share":             {a.gcShare, "%"},
		"serve.ttfb_pct_p50":       {percentile(a.ttfbPct, 0.5), "%"},
		"serve.stream_pct_p50":     {percentile(a.streamPct, 0.5), "%"},
		"serve.rejected":           perOp(a.rejected),
		"trace_overhead_pct": {
			(ratio(percentile(a.tracedMs, 0.5), percentile(a.untracedMs, 0.5)) - 1) * 100, "%"},
	}
	for _, layer := range cpuLayers {
		m[layer+".cpu_share"] = metric{a.cpu["stanoise/internal/"+layer], "%"}
	}
	return m
}

// writeLayerTable writes the per-layer metrics as an aligned text table.
func writeLayerTable(path string, m map[string]metric) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-26s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// measure runs one workload in this process and returns its result line
// and the sample summaries behind the end-to-end metrics.
func measure(ctx context.Context, w workload, cfg config) (result, map[string]summary, []string) {
	e := &env{name: w.name, cfg: cfg}
	if cfg.trace {
		e.rec = newRecorder()
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			e.chk.check(false, "trace directory: %v", err)
		}
	}
	if err := w.run(ctx, e); err != nil {
		e.chk.check(false, "%v", err)
	}
	var (
		metrics map[string]metric
		detail  map[string]summary
	)
	if cfg.trace {
		metrics = e.perLayer()
		e.chk.check(e.rec.writeChrome(e.tracePath("trace.json")) == nil, "writing the trace")
		e.chk.check(writeLayerTable(e.tracePath("layers.txt"), metrics) == nil, "writing the layer table")
	} else {
		metrics, detail = e.endToEnd()
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			e.chk.check(false, "metric %s is not finite", name)
			metrics[name] = metric{0, m.Unit}
		}
	}
	e.chk.check(e.attempted > 0, "no operation was attempted")
	failures := e.chk.list()
	res := result{
		Correct:   len(failures) == 0,
		Attempted: max(e.attempted, 1),
		Failed:    e.failed,
		Metrics:   metrics,
	}
	return res, detail, failures
}

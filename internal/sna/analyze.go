package sna

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// Options configures an analysis run.
type Options struct {
	// Method selects the victim-driver model. The zero value is Golden —
	// the full transistor-level reference simulation; set Macromodel (what
	// the snacheck CLI defaults to) for the paper's fast non-linear VCCS
	// flow.
	Method core.Method
	// Dt is the engine step; default 2 ps. A step longer than a tenth of
	// a cluster's shortest input edge fails that cluster with an
	// *sim.OptionsError (see core.EvalOptions).
	Dt float64
	// Align enables the worst-case peak-alignment search per cluster.
	Align bool
	// Feasibility enables the FRAME-style aggressor-correlation filter:
	// switching windows, mutex groups and implications on the cluster spec
	// prune unrealizable aggressor combinations, and each report carries a
	// bounded-realistic margin (NetReport.Feasibility) next to the classic
	// worst-case one. Clusters without constraints are unaffected beyond
	// the census. In this mode the alignment stage stops at peak alignment
	// — the coordinate-ascent refinement of the pessimistic flow is skipped,
	// so realistic runs perform strictly fewer engine solves. Off by
	// default; when off the output is byte-identical to the classic flow.
	Feasibility bool
	// Workers bounds how many clusters are analysed concurrently.
	// Default (and any value <= 0) is runtime.GOMAXPROCS(0); 1 forces a
	// fully serial run. Analyze reports come back in design order either
	// way; Stream yields in completion order.
	Workers int
	// OnError selects the error policy: FailFast (default) stops
	// dispatching at the first failing cluster, ContinueOnError analyses
	// every cluster and collects all failures via errors.Join.
	OnError ErrorPolicy
	// Cache optionally supplies a shared characterisation cache so
	// repeated runs (or several designs) reuse artefacts. When nil the
	// analyzer creates a private cache for the run.
	Cache *charlib.Cache
	// CacheDir, when non-empty, attaches a persistent content-addressed
	// characterisation store (see internal/charstore) at that directory to
	// the analyzer's private cache: artefacts built by this run are
	// persisted, and a later run pointed at the same directory skips the
	// transistor-level sweeps entirely. A directory that cannot be opened
	// degrades to memory-only caching; the error is reported by
	// Analyzer.StoreError. Ignored when Cache is supplied — a shared cache
	// belongs to the caller, who attaches a disk tier with Cache.SetStore.
	CacheDir string
	// Store attaches an already-opened persistent tier to the analyzer's
	// private cache, taking precedence over CacheDir. Like CacheDir it is
	// ignored when Cache is supplied.
	Store charlib.PersistentStore
	// Gate optionally bounds cluster-level concurrency *across* analyzers:
	// every worker acquires the gate before analysing a cluster and
	// releases it afterwards. A multi-tenant server shares one Gate (see
	// NewGate) between all in-flight requests so admitted requests queue at
	// cluster granularity instead of multiplying into Workers × requests
	// simultaneous solves. nil means no fleet-wide bound.
	Gate Gate
	// RigPools optionally shares a compiled-bench pool across analyzers
	// (see core.RigPool), the same way Cache shares characterised
	// artefacts: a long-lived server reuses compiled benches across
	// requests whose cluster topologies match. When nil the analyzer
	// creates a private pool with default limits.
	RigPools *core.RigPool
	// Corner selects the operating corner the whole analysis runs at: the
	// design's technology card is derived via tech.Corner.Apply before any
	// cluster is built, so every characterised artefact — and every cache
	// and store key — carries the corner. The zero value is the nominal
	// corner, under which the analysis (and its artefact bytes) is exactly
	// the corner-less one. Resolve named corners with tech.CornerByName.
	Corner tech.Corner
	// NonlinearCaps enables the NLMOS voltage-dependent gate-charge model
	// for every cell in the analysis: the design's technology card is
	// derived via tech.Tech.WithNonlinearCaps (after the corner is
	// applied), so each transistor's C_GD/C_GS follow the tanh charge
	// model and the transient engine re-evaluates their companion stamps
	// per Newton iteration — the paper's nonlinear-cell accuracy claim.
	// Nonlinear artefacts are cached and persisted under distinct keys
	// (the card fingerprint carries an NLCAP segment); with the flag off
	// the analysis and its artefact bytes are exactly the constant-cap
	// legacy flow.
	NonlinearCaps bool
	// Model quality knobs: the characterisation grids. The sweeps behind
	// them always warm-start and, for transients, seed with the predictor
	// (see charlib.Cache.LoadCurve and nrc.Characterize); Thevenin
	// aggressor fits are not sweeps over one rig and run cold.
	LoadCurve charlib.LoadCurveOptions
	Prop      charlib.PropOptions
	// NRC also holds the receivers' failure threshold, NRC.FailFrac: the
	// fraction of VDD at the receiver output; default 0.5.
	NRC nrc.Options
}

func (o Options) normalize() Options {
	if o.Dt <= 0 {
		o.Dt = 2e-12
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.OnError != ContinueOnError {
		// Clamp out-of-range policies to the default so Analyze and Stream
		// can test against either constant and still agree.
		o.OnError = FailFast
	}
	return o
}

// RegisterFlags defines the analysis mode flags the command-line front
// ends share on fs, bound to o: -nlcaps, -feasibility, and -corner, a
// standard corner name resolved through tech.CornerByName (an unknown name
// is a flag error).
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.NonlinearCaps, "nlcaps", o.NonlinearCaps,
		"model gate capacitances as voltage-dependent (NLMOS tanh gate-charge model; distinct cache/store keys, physically different noise)")
	fs.BoolVar(&o.Feasibility, "feasibility", o.Feasibility,
		"prune unrealizable aggressor combinations via switching windows and logic constraints; report realistic margins next to worst-case ones")
	fs.Func("corner", "operating corner: tt, ff, ss, fs or sf (default nominal; reports gain a corner tag)", func(name string) error {
		c, err := tech.CornerByName(name)
		if err != nil {
			return err
		}
		o.Corner = c
		return nil
	})
}

// StageTiming breaks one cluster's analysis into its pipeline stages. On a
// cache hit the Models and NRC stages collapse to lookup time, which is how
// the shared characterisation cache shows up in per-stage output.
type StageTiming struct {
	Build  time.Duration `json:"build_ns"`  // cluster construction: geometry, parasitics, cells
	Models time.Duration `json:"models_ns"` // pre-characterisation (load curve, Thevenin, MOR)
	Align  time.Duration `json:"align_ns"`  // worst-case aggressor alignment search
	Eval   time.Duration `json:"eval_ns"`   // transient evaluation of the chosen method
	NRC    time.Duration `json:"nrc_ns"`    // receiver NRC characterisation or cache lookup
	// Feas is the feasibility-filter time: constraint solving plus the
	// per-scenario evaluations. Zero (and omitted from JSON) unless
	// Options.Feasibility is on, keeping the classic wire schema unchanged.
	Feas time.Duration `json:"feas_ns,omitempty"`
}

// Total sums the stages.
func (s StageTiming) Total() time.Duration {
	return s.Build + s.Models + s.Align + s.Eval + s.NRC + s.Feas
}

// Add accumulates another cluster's timing (for per-design totals).
func (s *StageTiming) Add(o StageTiming) {
	s.Build += o.Build
	s.Models += o.Models
	s.Align += o.Align
	s.Eval += o.Eval
	s.NRC += o.NRC
	s.Feas += o.Feas
}

// Margin is a height margin to a receiver's Noise Rejection Curve, in
// volts: negative when the noise fails the NRC, +Inf when the receiver
// cannot fail at the glitch's width. JSON has no infinity, so Margin owns
// the report schema's one non-trivial mapping: an infinite margin travels
// as null and null decodes as +Inf. A report missing the key decodes to 0,
// like any absent number.
type Margin float64

// MarshalJSON writes null for an infinite margin and the float64's JSON
// number otherwise.
func (m Margin) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(m), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(m))
}

// UnmarshalJSON is the inverse of MarshalJSON: null becomes +Inf.
func (m *Margin) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*m = Margin(math.Inf(1))
		return nil
	}
	return json.Unmarshal(b, (*float64)(m))
}

// NetReport is the per-victim outcome of an analysis. Its JSON form is the
// stable machine-readable schema shared between the public API and
// snacheck -json; MarginV is +Inf for unfailable nets and therefore
// serialised as null (see Margin).
type NetReport struct {
	Cluster string      `json:"cluster"`
	Method  core.Method `json:"method"`

	// Corner names the operating corner the cluster was analysed at; empty
	// (and absent from JSON) for a nominal run, keeping the classic wire
	// schema byte-identical.
	Corner string `json:"corner,omitempty"`

	// Noise at the victim receiver input (what the NRC judges).
	PeakV   float64 `json:"peak_v"`
	AreaVps float64 `json:"area_vps"`
	WidthPs float64 `json:"width_ps"`

	// DPPeakV is the noise at the victim driving point (the paper's
	// measurement node), for cross-referencing against table results.
	DPPeakV float64 `json:"dp_peak_v"`

	Fails   bool   `json:"fails"`
	MarginV Margin `json:"margin_v"` // height margin to the NRC (+Inf when unfailable)

	Elapsed time.Duration `json:"elapsed_ns"` // evaluation time (excluding characterisation)
	Timing  StageTiming   `json:"timing"`     // full per-stage breakdown for this cluster

	// Feasibility carries the correlation filter's census and the
	// bounded-realistic outcome. Nil — and absent from JSON — unless
	// Options.Feasibility is enabled, so the classic schema is unchanged.
	Feasibility *FeasReport `json:"feasibility,omitempty"`
}

// ClearTiming zeroes the wall-clock fields, leaving only the analysis
// results — use it before comparing reports across runs, since timings are
// the one part of a report that legitimately differs between identical
// serial and parallel analyses.
func (r *NetReport) ClearTiming() {
	r.Elapsed = 0
	r.Timing = StageTiming{}
}

// Analyzer runs static noise analysis over a design. All characterised
// artefacts — load curves, propagation tables and NRC receiver curves — go
// through a shared thread-safe cache keyed by (cell, drive, state, tech),
// so the repeated cell configurations of a real design are characterised
// once no matter how many clusters use them or which worker gets there
// first.
type Analyzer struct {
	design   *Design
	opts     Options
	cache    *charlib.Cache
	storeErr error
	// optsErr rejects a non-finite Options.Dt: every run returns it before
	// any cluster work (see NewAnalyzer).
	optsErr error

	// pools is the compiled-bench pool every worker borrows from (see
	// core.RigPool). It persists across Analyze/Stream calls on the same
	// analyzer — a re-analysis reuses every compiled bench whose cluster
	// topology is unchanged, and clusters sharing a victim configuration
	// reuse one driver-alone bench even within a single run. When
	// Options.RigPools is set this is the caller's shared pool, and
	// benches additionally persist across analyzers.
	pools *core.RigPool
}

// RigPoolStats reports compiled-bench pool effectiveness: hits counts
// bench compilations avoided by topology-class reuse, misses counts
// benches compiled. Both are counted as benches are lent, runs in flight
// included; with a shared Options.RigPools the counts cover every analyzer
// on the pool.
func (a *Analyzer) RigPoolStats() (hits, misses int) { return a.pools.Stats() }

// NewAnalyzer builds an analyzer for a validated design. A NaN or infinite
// Options.Dt makes every run (Analyze, Stream, PropagateChain) return a
// *sim.OptionsError before any cluster work: it would otherwise reach the
// engines, which reject it once per cluster, or be defaulted (-Inf).
func NewAnalyzer(d *Design, opts Options) *Analyzer {
	var optsErr error
	if math.IsNaN(opts.Dt) || math.IsInf(opts.Dt, 0) {
		optsErr = &sim.OptionsError{Field: "Dt", Value: opts.Dt}
	}
	opts, _, storeErr := ResolveShared(opts.normalize())
	return &Analyzer{design: d, opts: opts, cache: opts.Cache, pools: opts.RigPools, optsErr: optsErr, storeErr: storeErr}
}

// ResolveShared resolves the machinery an analysis shares across runs,
// for NewAnalyzer and serve.NewServer alike. Options.Cache wins: a shared
// cache is the caller's object, and its disk tier is never touched from
// here (two analyzers with different CacheDirs would silently clobber
// each other's store). Otherwise a new cache is made, carrying
// Options.Store or else the store opened at Options.CacheDir; a directory
// that cannot be opened degrades to memory-only caching, because a broken
// cache directory must never block sign-off, and its error is returned as
// storeErr. A default core.RigPool is made when Options.RigPools is nil.
//
// The resolved options carry the cache and the pool, with Store and
// CacheDir cleared: the cache holds the tier. store is the
// *charstore.Store the new cache carries, or nil when Options.Cache was
// supplied or the tier is none or another charlib.PersistentStore.
func ResolveShared(opts Options) (resolved Options, store *charstore.Store, storeErr error) {
	if opts.Cache == nil {
		opts.Cache = charlib.NewCache()
		switch {
		case opts.Store != nil:
			opts.Cache.SetStore(opts.Store)
			store, _ = opts.Store.(*charstore.Store)
		case opts.CacheDir != "":
			if store, storeErr = charstore.Open(opts.CacheDir); storeErr == nil {
				opts.Cache.SetStore(store)
			}
		}
	}
	if opts.RigPools == nil {
		opts.RigPools = core.NewRigPool(core.RigPoolLimits{})
	}
	opts.Store, opts.CacheDir = nil, ""
	return opts, store, storeErr
}

// StoreError reports why Options.CacheDir could not be opened, or nil.
// The analysis itself proceeds memory-cached either way.
func (a *Analyzer) StoreError() error { return a.storeErr }

// CacheStats reports the effectiveness of the characterisation cache so
// far (hits accumulate across Analyze calls on the same analyzer or any
// analyzer sharing the cache).
func (a *Analyzer) CacheStats() charlib.CacheStats { return a.cache.Stats() }

// Workers returns the effective worker-pool size Analyze will use: the
// normalized Options.Workers capped at the cluster count.
func (a *Analyzer) Workers() int {
	w := a.opts.Workers
	if n := len(a.design.Clusters); w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// outcome is one completed cluster: exactly one of rep/err is non-nil.
type outcome struct {
	idx int
	rep *NetReport
	err *ClusterError
}

// runClusters dispatches every cluster of the design to a bounded pool of
// Workers goroutines and delivers each completed outcome to emit, always
// from the calling goroutine, in completion order. emit returning false
// stops the run: no new clusters are claimed, in-flight workers are
// cancelled, and runClusters returns nil without further emissions.
//
// Under FailFast the pool stops claiming new clusters after the first
// failure but still delivers the outcomes of clusters already in flight,
// so the caller can pick the earliest failure in design order. Under
// ContinueOnError every cluster is attempted exactly once.
//
// Cancellation of ctx wins over everything else: outcomes of clusters cut
// short by the cancel are discarded and runClusters returns ctx.Err().
func (a *Analyzer) runClusters(ctx context.Context, emit func(outcome) bool) error {
	if a.optsErr != nil {
		return a.optsErr
	}
	clusters := a.design.Clusters
	if len(clusters) == 0 {
		return ctx.Err()
	}
	if a.Workers() <= 1 {
		// Deliberately a plain loop rather than a 1-worker pool: this is
		// the reference implementation the determinism contract is judged
		// against — TestParallelMatchesSerial compares the pool's output
		// to this path, which it couldn't do if both went through the same
		// pool machinery.
		for i, cs := range clusters {
			if err := ctx.Err(); err != nil {
				return err
			}
			rep, cerr := a.gatedAnalyzeCluster(ctx, cs)
			if cerr != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
				if !emit(outcome{idx: i, err: cerr}) {
					return nil
				}
				if a.opts.OnError == FailFast {
					return nil
				}
				continue
			}
			if !emit(outcome{idx: i, rep: rep}) {
				return nil
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	results := make(chan outcome)
	var (
		next atomic.Int64 // index of the next cluster to claim
		stop atomic.Bool  // FailFast latch: halts new claims
		wg   sync.WaitGroup
	)
	for w := 0; w < a.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(clusters) || stop.Load() || ctx.Err() != nil {
					return
				}
				rep, cerr := a.gatedAnalyzeCluster(ctx, clusters[i])
				if cerr != nil {
					if ctx.Err() != nil {
						// Cut short by cancellation, not a real cluster
						// failure — drop it.
						return
					}
					if a.opts.OnError == FailFast {
						stop.Store(true)
					}
				}
				select {
				case results <- outcome{idx: i, rep: rep, err: cerr}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	// The deferred cancel-and-drain keeps the pool leak-free on every exit
	// path, including a panic inside emit: workers blocked on the results
	// channel observe the cancel (or are drained) and exit, after which the
	// closer goroutine closes the channel and the drain loop ends.
	defer func() {
		cancel()
		for range results {
		}
	}()
	for out := range results {
		if !emit(out) {
			return nil
		}
	}
	return parent.Err()
}

// Analyze evaluates every cluster in the design and returns one report per
// victim net, in design order regardless of worker count.
//
// Under FailFast (the default) the first cluster error stops the run and
// Analyze returns nil reports and the *ClusterError of the earliest failing
// cluster in design order, mirroring what a serial run would report. Under
// ContinueOnError every cluster is analysed: the reports of all successful
// clusters are returned in design order together with every failure
// combined via errors.Join (each one an extractable *ClusterError).
//
// Cancelling ctx stops the analysis promptly — mid-characterisation and
// mid-transient, not just between clusters — and returns ctx.Err().
func (a *Analyzer) Analyze(ctx context.Context) ([]NetReport, error) {
	n := len(a.design.Clusters)
	reports := make([]*NetReport, n)
	clusterErrs := make([]*ClusterError, n)
	if err := a.runClusters(ctx, func(out outcome) bool {
		reports[out.idx], clusterErrs[out.idx] = out.rep, out.err
		return true
	}); err != nil {
		return nil, err
	}
	if a.opts.OnError == FailFast {
		for _, cerr := range clusterErrs {
			if cerr != nil {
				return nil, cerr
			}
		}
	}
	out := make([]NetReport, 0, n)
	var errs []error
	for i := 0; i < n; i++ {
		switch {
		case clusterErrs[i] != nil:
			errs = append(errs, clusterErrs[i])
		case reports[i] != nil:
			out = append(out, *reports[i])
		}
	}
	return out, errors.Join(errs...)
}

// Stream analyses the design and yields reports in completion order, so a
// caller can show progress, pipeline downstream work, or stop early by
// breaking out of the loop (the worker pool is then cancelled and drained —
// no goroutines leak).
//
// Error handling follows Options.OnError. Under ContinueOnError every
// failing cluster yields a (zero-report, *ClusterError) pair as it fails
// and the run continues. Under FailFast the pool stops claiming clusters
// at the first failure; reports already in flight are still yielded, and
// the earliest failure in design order is yielded last. When ctx is
// cancelled the final yield carries ctx.Err().
//
// A run consumed to completion yields exactly the reports (and, under
// ContinueOnError, the errors) of an equivalent Analyze call.
func (a *Analyzer) Stream(ctx context.Context) iter.Seq2[NetReport, error] {
	return func(yield func(NetReport, error) bool) {
		var (
			stopped bool
			failIdx = -1
			failErr *ClusterError
		)
		runErr := a.runClusters(ctx, func(out outcome) bool {
			if out.err != nil {
				if a.opts.OnError == ContinueOnError {
					ok := yield(NetReport{Cluster: out.err.Cluster}, out.err)
					stopped = !ok
					return ok
				}
				// FailFast: keep draining in-flight outcomes so the error
				// we surface is the earliest in design order, as a serial
				// run would report.
				if failIdx < 0 || out.idx < failIdx {
					failIdx, failErr = out.idx, out.err
				}
				return true
			}
			ok := yield(*out.rep, nil)
			stopped = !ok
			return ok
		})
		if stopped {
			return
		}
		if runErr != nil {
			yield(NetReport{}, runErr)
			return
		}
		if failErr != nil {
			yield(NetReport{Cluster: failErr.Cluster}, failErr)
		}
	}
}

// gatedAnalyzeCluster wraps analyzeCluster in the fleet gate (see
// Options.Gate): the worker holds one fleet slot for the duration of the
// cluster's analysis. A gate acquisition cut short by cancellation surfaces
// as a *ClusterError carrying the context error, which runClusters already
// maps to a cancelled run rather than a cluster failure.
func (a *Analyzer) gatedAnalyzeCluster(ctx context.Context, cs ClusterSpec) (*NetReport, *ClusterError) {
	if g := a.opts.Gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			return nil, &ClusterError{Cluster: cs.Name, Stage: StageBuild, Err: err}
		}
		defer g.Release()
	}
	return a.analyzeCluster(ctx, cs)
}

// clusterRun is one cluster carried through the analysis pipeline: the
// built cluster, its classic evaluation, the feasibility context and
// scenario outcomes when the filter ran, and the per-stage timing so far.
type clusterRun struct {
	cl        *core.Cluster
	ev        *core.Evaluation
	fctx      *feasContext // nil unless the feasibility filter ran
	scenarios []scenarioOutcome
	timing    StageTiming
}

// runCluster carries one cluster through the pipeline both Analyze and
// PropagateChain run: build → models → feasibility context → alignment →
// evaluation → scenarios. Analyze then judges the run against the NRC;
// PropagateChain hands its noise to the next stage. The error, when
// non-nil, names the failed stage. The cluster borrows its compiled
// benches from the analyzer's pool.
func (a *Analyzer) runCluster(ctx context.Context, cs ClusterSpec) (*clusterRun, *ClusterError) {
	fail := func(stage Stage, err error) (*clusterRun, *ClusterError) {
		return nil, &ClusterError{Cluster: cs.Name, Stage: stage, Err: err}
	}
	r := &clusterRun{}
	t0 := time.Now()
	cl, err := a.buildCluster(cs)
	if err != nil {
		return fail(StageBuild, err)
	}
	// The step rule fails the cluster here, before it characterises
	// anything, whatever the later stages would run.
	if err := cl.CheckStep(a.opts.Dt); err != nil {
		return fail(StageBuild, err)
	}
	cl.UseRigPool(a.pools)
	r.cl = cl
	r.timing.Build = time.Since(t0)

	t0 = time.Now()
	models, err := cl.BuildModels(ctx, a.modelOptions())
	if err != nil {
		return fail(StageModels, err)
	}
	r.timing.Models = time.Since(t0)

	eopts := core.EvalOptions{Dt: a.opts.Dt}
	feasible := a.opts.Feasibility && len(cl.Aggressors) > 0
	if feasible {
		// Constraint solving is cheap (≤ 2^N masks); evaluation is not, so
		// infeasible specs must fail here, before any engine run.
		t0 = time.Now()
		if r.fctx, err = newFeasContext(&cs); err != nil {
			return fail(StageFeas, err)
		}
		r.timing.Feas += time.Since(t0)
	}

	var (
		target float64
		starts []float64
	)
	if a.opts.Align && len(cl.Aggressors) > 0 {
		t0 = time.Now()
		if feasible {
			// Realistic mode stops at peak alignment: the coordinate-ascent
			// refinement of the pessimistic flow is exactly the simulation
			// budget the feasibility filter reinvests into scenarios.
			target, starts, err = cl.AlignPeaks(ctx, models, eopts)
		} else {
			err = cl.AlignWorstCase(ctx, models, eopts)
		}
		if err != nil {
			return fail(StageAlign, err)
		}
		r.timing.Align = time.Since(t0)
	}
	if feasible && starts == nil {
		// Alignment disabled: the classical evaluation uses the nominal
		// start times, and scenarios clamp those into their windows.
		target = math.NaN()
		starts = nominalStarts(cl)
	}

	t0 = time.Now()
	if r.ev, err = cl.Evaluate(ctx, a.opts.Method, models, eopts); err != nil {
		return fail(StageEval, err)
	}
	r.timing.Eval = time.Since(t0)

	if feasible {
		t0 = time.Now()
		r.scenarios, err = evalScenarios(ctx, cl, a.opts.Method, models, eopts, r.fctx, target, starts, a.opts.Align, r.ev)
		if err != nil {
			return fail(StageFeas, err)
		}
		r.timing.Feas += time.Since(t0)
	}
	return r, nil
}

// analyzeCluster runs the pipeline on one cluster and judges its noise
// against the receiver's NRC. The error, when non-nil, is always a
// *ClusterError naming the failed stage.
func (a *Analyzer) analyzeCluster(ctx context.Context, cs ClusterSpec) (*NetReport, *ClusterError) {
	r, cerr := a.runCluster(ctx, cs)
	if cerr != nil {
		return nil, cerr
	}
	ev := r.ev
	rep := &NetReport{
		Cluster: cs.Name,
		Method:  a.opts.Method,
		Corner:  cornerLabel(a.opts.Corner),
		PeakV:   ev.RecvMetrics.Peak,
		AreaVps: ev.RecvMetrics.AreaVps(),
		WidthPs: ev.RecvMetrics.WidthPs(),
		DPPeakV: ev.Metrics.Peak,
		Elapsed: ev.Elapsed,
	}

	t0 := time.Now()
	curve, err := a.receiverCurve(ctx, r.cl.Victim.Receiver, r.cl.Victim.ReceiverPin, r.cl)
	if err != nil {
		return nil, &ClusterError{Cluster: cs.Name, Stage: StageNRC, Err: err}
	}
	r.timing.NRC = time.Since(t0)
	rep.Fails = curve.Fails(rep.PeakV, ev.RecvMetrics.Width)
	rep.MarginV = Margin(curve.MarginV(rep.PeakV, ev.RecvMetrics.Width))
	if r.fctx != nil {
		rep.Feasibility = r.fctx.report(curve, r.scenarios, rep.MarginV, rep.Fails)
	} else if a.opts.Feasibility {
		// Aggressor-free cluster: nothing to prune, but the mode still
		// reports a (trivial) census so consumers see a uniform schema.
		rep.Feasibility = emptyFeasReport(rep)
	}
	rep.Timing = r.timing
	return rep, nil
}

// ReceiverNRC characterises (or retrieves from the shared cache) the Noise
// Rejection Curve the analyzer would judge the given cluster's victim
// receiver against — the sign-off criterion itself, exposed for reporting
// and inspection.
func (a *Analyzer) ReceiverNRC(ctx context.Context, cs ClusterSpec) (*nrc.Curve, error) {
	cl, err := a.buildCluster(cs)
	if err != nil {
		return nil, err
	}
	return a.receiverCurve(ctx, cl.Victim.Receiver, cl.Victim.ReceiverPin, cl)
}

// buildCluster builds a cluster on the analysis card: the design's
// technology at Options.Corner, with the nonlinear gate-charge model under
// Options.NonlinearCaps. Analyze, ReceiverNRC and PropagateChain all build
// through it, so they judge the same circuit.
func (a *Analyzer) buildCluster(cs ClusterSpec) (*core.Cluster, error) {
	return a.design.buildCluster(cs, a.opts.Corner, a.opts.NonlinearCaps)
}

// modelOptions is the characterisation request of every cluster: the
// analysis grids and policy through the shared cache, with propagation
// tables only for the superposition method that consumes them.
func (a *Analyzer) modelOptions() core.ModelOptions {
	return core.ModelOptions{
		LoadCurve: a.opts.LoadCurve,
		Prop:      a.opts.Prop,
		SkipProp:  a.opts.Method != core.Superposition,
		Cache:     a.cache,
	}
}

// cornerLabel renders the report tag of an analysis corner: its name for a
// non-nominal corner (falling back to the full fingerprint for an unnamed
// one, so the report never silently drops the axis), empty for nominal.
func cornerLabel(c tech.Corner) string {
	if c.IsNominal() {
		return ""
	}
	if c.Name != "" {
		return c.Name
	}
	return c.Fingerprint()
}

// receiverCurve characterises (or retrieves) the NRC of the victim's
// receiver pin for the victim's quiet level. Curves are memoized in the
// shared cache, so clusters with the same receiver configuration — the
// overwhelmingly common case — characterise it once, even across workers.
func (a *Analyzer) receiverCurve(ctx context.Context, recv *cell.Cell, pin string, cl *core.Cluster) (*nrc.Curve, error) {
	quietHigh := cl.QuietVictimLevel() > cl.Tech.VDD/2
	// The receiver input sits at the victim's quiet level; find a state of
	// the receiver consistent with that and sensitised through the pin.
	st, err := recv.SensitizedState(pin, !quietHigh)
	if err != nil {
		// Fall back to any holding state with the right pin level.
		st = nil
		for _, s := range recv.HoldStates(true) {
			if s[pin] == quietHigh {
				st = s
				break
			}
		}
		if st == nil {
			return nil, fmt.Errorf("sna: no usable receiver state for %s.%s", recv.Name(), pin)
		}
	}
	if st[pin] != quietHigh {
		// Sensitised state with the wrong pin polarity: flip search.
		if alt, err2 := recv.SensitizedState(pin, quietHigh); err2 == nil && alt[pin] == quietHigh {
			st = alt
		}
	}
	return a.cache.NRCCurve(ctx, recv, st, pin, a.opts.NRC)
}

// Summary aggregates reports for quick inspection. WorstMarginV is +Inf
// (serialised as null in JSON) when no analysed net can fail its NRC — in
// particular for an empty design.
type Summary struct {
	Total        int    `json:"total"`
	Failing      int    `json:"failing"`
	WorstMarginV Margin `json:"worst_margin_v"`
	WorstCluster string `json:"worst_cluster,omitempty"`
}

// String renders the one-line human summary, guarding the empty-design and
// all-unfailable cases instead of printing "+Inf (  )".
func (s Summary) String() string {
	if s.Total == 0 {
		return "no nets analysed"
	}
	if math.IsInf(float64(s.WorstMarginV), 1) {
		return fmt.Sprintf("%d nets analysed, %d failing; no net can fail its NRC", s.Total, s.Failing)
	}
	return fmt.Sprintf("%d nets analysed, %d failing; worst margin %.3f V (%s)",
		s.Total, s.Failing, s.WorstMarginV, s.WorstCluster)
}

// Summarize folds reports into a Summary. The worst cluster is the one
// with the smallest margin; ties go to the earliest report, and a run where
// every margin is +Inf still names the first net rather than none.
func Summarize(reports []NetReport) Summary {
	s := Summary{WorstMarginV: Margin(math.Inf(1))}
	for i, r := range reports {
		s.Total++
		if r.Fails {
			s.Failing++
		}
		if i == 0 || r.MarginV < s.WorstMarginV {
			s.WorstMarginV = r.MarginV
			s.WorstCluster = r.Cluster
		}
	}
	return s
}

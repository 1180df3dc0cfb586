// Repository-level benchmarks: one per table/figure/claim of the paper's
// evaluation section, plus ablations of the design choices called out in
// DESIGN.md. Model construction (pre-characterisation) happens outside the
// timed loop, mirroring the paper's separation of the offline library step
// from the per-cluster analysis the 20X claim refers to.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkTable1 -benchmem
package stanoise_test

import (
	"context"
	"sync"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/interconnect"
	"stanoise/internal/mor"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
	"stanoise/paper"
)

// prepared caches the expensive model construction per cluster so every
// benchmark times only the analysis, and b.N loops stay honest.
type prepared struct {
	cluster *core.Cluster
	models  *core.Models
	opts    core.EvalOptions
}

var (
	prepMu    sync.Mutex
	prepCache = map[string]*prepared{}
)

func prepareBench(b *testing.B, key string, build func(paper.Quality) (*core.Cluster, error), needProp bool) *prepared {
	b.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepCache[key]; ok {
		return p
	}
	c, err := build(paper.Full)
	if err != nil {
		b.Fatal(err)
	}
	mopts := core.ModelOptions{SkipProp: !needProp}
	models, err := c.BuildModels(context.Background(), mopts)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.EvalOptions{Dt: 1e-12}
	if err := c.AlignWorstCase(context.Background(), models, opts); err != nil {
		b.Fatal(err)
	}
	p := &prepared{cluster: c, models: models, opts: opts}
	prepCache[key] = p
	return p
}

func benchMethod(b *testing.B, p *prepared, m core.Method) {
	b.Helper()
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		ev, err := p.cluster.Evaluate(context.Background(), m, p.models, p.opts)
		if err != nil {
			b.Fatal(err)
		}
		peak = ev.Metrics.Peak
	}
	b.ReportMetric(peak, "peakV")
}

// --- Table 1: injected + propagated combination -------------------------

func BenchmarkTable1Golden(b *testing.B) {
	benchMethod(b, prepareBench(b, "t1", paper.Table1Cluster, true), core.Golden)
}

func BenchmarkTable1Superposition(b *testing.B) {
	benchMethod(b, prepareBench(b, "t1", paper.Table1Cluster, true), core.Superposition)
}

func BenchmarkTable1Zolotov(b *testing.B) {
	benchMethod(b, prepareBench(b, "t1", paper.Table1Cluster, true), core.Zolotov)
}

func BenchmarkTable1Macromodel(b *testing.B) {
	benchMethod(b, prepareBench(b, "t1", paper.Table1Cluster, true), core.Macromodel)
}

// --- Table 2: worst-case two-aggressor overlap ---------------------------

func BenchmarkTable2Golden(b *testing.B) {
	benchMethod(b, prepareBench(b, "t2", paper.Table2Cluster, false), core.Golden)
}

func BenchmarkTable2Macromodel(b *testing.B) {
	benchMethod(b, prepareBench(b, "t2", paper.Table2Cluster, false), core.Macromodel)
}

// --- Claim C2: ~20X speed-up ---------------------------------------------

// BenchmarkSpeedupTable1 reports the golden/macromodel runtime ratio as a
// custom metric, regenerating the paper's headline speed-up number.
func BenchmarkSpeedupTable1(b *testing.B) {
	p := prepareBench(b, "t1", paper.Table1Cluster, true)
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := p.cluster.Evaluate(context.Background(), core.Golden, p.models, p.opts)
		if err != nil {
			b.Fatal(err)
		}
		m, err := p.cluster.Evaluate(context.Background(), core.Macromodel, p.models, p.opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(g.Elapsed) / float64(m.Elapsed)
	}
	b.ReportMetric(ratio, "x-speedup")
}

func BenchmarkSpeedupTable2(b *testing.B) {
	p := prepareBench(b, "t2", paper.Table2Cluster, false)
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := p.cluster.Evaluate(context.Background(), core.Golden, p.models, p.opts)
		if err != nil {
			b.Fatal(err)
		}
		m, err := p.cluster.Evaluate(context.Background(), core.Macromodel, p.models, p.opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(g.Elapsed) / float64(m.Elapsed)
	}
	b.ReportMetric(ratio, "x-speedup")
}

// --- Claim C1: accuracy sweep (quick subset keeps bench time sane) -------

func BenchmarkClusterSweepSubset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := paper.RunSweep(context.Background(), paper.Quick, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: macromodel construction ------------------------------------

// BenchmarkFig1ModelBuild times the full pre-characterisation pipeline
// (VCCS table, Thevenin fits, reduction) that assembles Figure 1's circuit.
func BenchmarkFig1ModelBuild(b *testing.B) {
	c, err := paper.Table2Cluster(paper.Full)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BuildModels(context.Background(), core.ModelOptions{SkipProp: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationZolotovPasses shows how the iterative linear model of
// ref [4] converges toward the non-linear answer (peakV metric).
func BenchmarkAblationZolotovPasses(b *testing.B) {
	p := prepareBench(b, "t1", paper.Table1Cluster, true)
	for _, passes := range []int{1, 2, 4} {
		name := map[int]string{1: "passes1", 2: "passes2", 4: "passes4"}[passes]
		b.Run(name, func(b *testing.B) {
			opts := p.opts
			opts.ZolotovPasses = passes
			var peak float64
			for i := 0; i < b.N; i++ {
				ev, err := p.cluster.Evaluate(context.Background(), core.Zolotov, p.models, opts)
				if err != nil {
					b.Fatal(err)
				}
				peak = ev.Metrics.Peak
			}
			b.ReportMetric(peak, "peakV")
		})
	}
}

// BenchmarkAblationMiller compares the pure DC-table macromodel (the
// paper's formulation) against the Miller-augmented extension.
func BenchmarkAblationMiller(b *testing.B) {
	p := prepareBench(b, "t1", paper.Table1Cluster, true)
	for _, miller := range []bool{false, true} {
		name := "paperPure"
		if miller {
			name = "withMiller"
		}
		b.Run(name, func(b *testing.B) {
			opts := p.opts
			opts.Miller = miller
			var peak float64
			for i := 0; i < b.N; i++ {
				ev, err := p.cluster.Evaluate(context.Background(), core.Macromodel, p.models, opts)
				if err != nil {
					b.Fatal(err)
				}
				peak = ev.Metrics.Peak
			}
			b.ReportMetric(peak, "peakV")
		})
	}
}

// BenchmarkAblationMORMoments sweeps the number of matched block moments,
// the accuracy/size knob of the coupled S-model.
func BenchmarkAblationMORMoments(b *testing.B) {
	t := tech.Tech130()
	bus, err := interconnect.NewBus(t, "M4", 25,
		interconnect.LineSpec{Name: "v", LengthUm: 500},
		interconnect.LineSpec{Name: "a", LengthUm: 500},
	)
	if err != nil {
		b.Fatal(err)
	}
	net := bus.Network(nil)
	ports := []string{bus.InNode(0), bus.InNode(1), bus.OutNode(0)}
	for _, moments := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "m1", 2: "m2", 3: "m3", 4: "m4"}[moments], func(b *testing.B) {
			b.ReportAllocs()
			var q int
			for i := 0; i < b.N; i++ {
				red, err := mor.Reduce(net, ports, mor.Options{Moments: moments})
				if err != nil {
					b.Fatal(err)
				}
				q = red.Q
			}
			b.ReportMetric(float64(q), "states")
		})
	}
}

// --- Design-level concurrent engine ---------------------------------------

// The design-scale benchmarks measure the two levers of the concurrent
// analysis engine on a generated 32-cluster design: the bounded worker
// pool (serial vs parallel — the speedup tracks GOMAXPROCS, so expect ~1x
// on a single-core runner and ≥2x from 4 cores up) and the shared
// characterisation cache (cold = every artefact characterised this run,
// warm = all artefacts served from a pre-populated cache).

const benchDesignClusters = 32

func designBenchOpts(workers int, cache *charlib.Cache) sna.Options {
	return sna.Options{
		Method:    core.Macromodel,
		Dt:        2e-12,
		Workers:   workers,
		Cache:     cache,
		LoadCurve: charlib.LoadCurveOptions{NVin: 31, NVout: 31},
		NRC:       nrc.Options{Widths: []float64{100e-12, 300e-12, 900e-12}, Dt: 2e-12},
	}
}

func benchDesignAnalyze(b *testing.B, workers int, warm bool) {
	b.Helper()
	d := sna.GenerateDesign("bench", benchDesignClusters)
	var shared *charlib.Cache
	if warm {
		shared = charlib.NewCache()
		if _, err := sna.NewAnalyzer(d, designBenchOpts(workers, shared)).Analyze(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := shared
		if !warm {
			// A fresh cache per iteration keeps every characterisation
			// inside the timed region (within-run sharing still applies,
			// as it would on a real cold start).
			cache = charlib.NewCache()
		}
		reports, err := sna.NewAnalyzer(d, designBenchOpts(workers, cache)).Analyze(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != benchDesignClusters {
			b.Fatalf("reports = %d", len(reports))
		}
	}
}

func BenchmarkDesignAnalyzeSerial(b *testing.B)    { benchDesignAnalyze(b, 1, false) }
func BenchmarkDesignAnalyzeParallel2(b *testing.B) { benchDesignAnalyze(b, 2, false) }
func BenchmarkDesignAnalyzeParallel4(b *testing.B) { benchDesignAnalyze(b, 4, false) }
func BenchmarkDesignAnalyzeParallel8(b *testing.B) { benchDesignAnalyze(b, 8, false) }

// Parallel4 doubles as the cold-cache baseline: same design and workers,
// every artefact characterised inside the timed region.
func BenchmarkDesignAnalyzeWarmCache(b *testing.B) { benchDesignAnalyze(b, 4, true) }

// --- Feasibility filter ----------------------------------------------------

// The feasibility benchmarks measure the aggressor-correlation filter on
// the generated windowed design (every aggressor carries a switching
// window; every fourth cluster a mutex or implication pair). Both modes
// run the full alignment search over a pre-warmed characterisation cache,
// so the timed region is exactly the work the filter changes: Pessimistic
// pays the per-aggressor coordinate-ascent refinement, Feasible replaces
// it with interval-arithmetic alignment plus one engine run per maximal
// feasible scenario. The engine-solves/op metric makes the strictly-fewer-
// simulations claim visible next to the wall-clock number, and
// engine-steps/op the steps those runs took, which the alignment search's
// stopped and resumed runs cut (DESIGN.md §26, §29).
func benchDesignFeasibility(b *testing.B, feasibility bool) {
	b.Helper()
	d := sna.GenerateDesign("bench", benchDesignClusters)
	shared := charlib.NewCache()
	opts := designBenchOpts(4, shared)
	opts.Align = true
	opts.Feasibility = feasibility
	if _, err := sna.NewAnalyzer(d, opts).Analyze(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := sim.Snapshot()
	for i := 0; i < b.N; i++ {
		reports, err := sna.NewAnalyzer(d, opts).Analyze(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != benchDesignClusters {
			b.Fatalf("reports = %d", len(reports))
		}
	}
	work := sim.Snapshot().Sub(before)
	b.ReportMetric(float64(work.EngineRuns)/float64(b.N), "engine-solves/op")
	b.ReportMetric(float64(work.EngineSteps)/float64(b.N), "engine-steps/op")
}

func BenchmarkDesignAnalyzePessimistic(b *testing.B) { benchDesignFeasibility(b, false) }
func BenchmarkDesignAnalyzeFeasible(b *testing.B)    { benchDesignFeasibility(b, true) }

// --- Persistent characterisation store (internal/charstore) ---------------

// The disk-tier benchmarks measure the cross-run lever: ColdDisk is a
// first-ever run that characterises everything and persists it (the
// write-behind cost rides along); WarmDisk starts each iteration with an
// empty in-memory cache but a populated store, so every artefact is a
// disk read + decode instead of a transistor-level sweep. The
// WarmDisk/ColdDisk ratio is the speedup a second `snacheck -cache-dir`
// invocation sees.

func benchDesignAnalyzeDisk(b *testing.B, warm bool) {
	b.Helper()
	d := sna.GenerateDesign("bench", benchDesignClusters)
	dir := b.TempDir()
	if warm {
		// Populate the store once, outside the timed region. Cache is nil:
		// CacheDir configures the analyzer's private cache (a supplied
		// shared cache is never store-mutated — see sna.Options).
		opts := designBenchOpts(4, nil)
		opts.CacheDir = dir
		if _, err := sna.NewAnalyzer(d, opts).Analyze(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			// A fresh store directory per iteration keeps every sweep and
			// every first-time persist inside the timed region.
			b.StopTimer()
			dir = b.TempDir()
			b.StartTimer()
		}
		opts := designBenchOpts(4, nil)
		opts.CacheDir = dir
		an := sna.NewAnalyzer(d, opts)
		reports, err := an.Analyze(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != benchDesignClusters {
			b.Fatalf("reports = %d", len(reports))
		}
		if warm {
			if cs := an.CacheStats(); cs.DiskHits != cs.Misses {
				b.Fatalf("warm iteration characterised: %+v", cs)
			}
		}
	}
}

func BenchmarkDesignAnalyzeColdDisk(b *testing.B) { benchDesignAnalyzeDisk(b, false) }
func BenchmarkDesignAnalyzeWarmDisk(b *testing.B) { benchDesignAnalyzeDisk(b, true) }

// --- Substrate benchmarks --------------------------------------------------

// BenchmarkLoadCurveCharacterization times the paper's pre-characterisation
// step (eq. 1) at the production grid size.
func BenchmarkLoadCurveCharacterization(b *testing.B) {
	t := tech.Tech130()
	nand := cell.MustNew(t, "NAND2", 1)
	st, err := nand.SensitizedState("B", true)
	if err != nil {
		b.Fatal(err)
	}
	var cache *charlib.Cache // nil: characterise on every call
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cache.LoadCurve(context.Background(), nand, st, "B",
			charlib.LoadCurveOptions{NVin: 61, NVout: 61}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMacromodelEngine isolates the dedicated non-linear engine — the
// inner loop behind the 20X claim.
func BenchmarkMacromodelEngine(b *testing.B) {
	p := prepareBench(b, "t2", paper.Table2Cluster, false)
	sources := make([]core.PortSource, len(p.models.Red.Ports))
	for i := range sources {
		sources[i] = core.OpenPort{}
	}
	sources[p.models.VicPort] = &core.HoldingPort{G: p.models.HoldG, V0: p.models.QuietVic}
	for i, pi := range p.models.AggPorts {
		sources[pi] = core.NewTheveninPort(p.models.Agg[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunEngine(context.Background(), p.models.Red, sources, p.models.V0,
			core.EngineOptions{Dt: 1e-12, TStop: 2e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignWorstCase times the pessimistic flow's worst-case alignment
// search on the Table 2 cluster: the peak-alignment runs, then the
// coordinate-ascent probes, each an engine run whose one non-linear port
// is the victim's VCCS (p_N = 1), which resumes from the best run's state
// where its sources first differ (DESIGN.md §29) and stops once its peak
// is decided (§26). Every op restarts from the same offsets, so every op
// does the same engine runs and steps.
func BenchmarkAlignWorstCase(b *testing.B) {
	p := prepareBench(b, "t2", paper.Table2Cluster, false)
	aggs := p.cluster.Aggressors
	offsets := make([]float64, len(aggs))
	for i := range aggs {
		offsets[i] = aggs[i].Offset
	}
	restore := func() {
		for i := range aggs {
			aggs[i].Offset = offsets[i]
		}
	}
	defer restore()
	b.ReportAllocs()
	b.ResetTimer()
	before := sim.Snapshot()
	for i := 0; i < b.N; i++ {
		restore()
		if err := p.cluster.AlignWorstCase(context.Background(), p.models, p.opts); err != nil {
			b.Fatal(err)
		}
	}
	d := sim.Snapshot().Sub(before)
	b.ReportMetric(float64(d.EngineRuns)/float64(b.N), "engine-runs/op")
	b.ReportMetric(float64(d.EngineSteps)/float64(b.N), "engine-steps/op")
}

// Package paper defines the canonical experiment configurations that
// reproduce every table and figure of Forzan & Pandini, "Modeling the
// Non-Linear Behavior of Library Cells for an Accurate Static Noise
// Analysis" (DATE 2005), and the runners that regenerate them.
//
// The same definitions feed the noisetab command, the repository-level
// benchmarks and the regression tests, so the published numbers in
// EXPERIMENTS.md are exactly what the test suite asserts on.
package paper

import (
	"context"
	"fmt"
	"sync"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/sna"
	"stanoise/internal/wave"
)

// The shared characterisation cache of the experiment runners. By default
// every runner characterises from scratch (nil cache — the honest setting
// for regenerating published timings). noisetab -cache-dir installs a
// disk-backed cache here so repeated experiment runs skip the
// transistor-level sweeps.
var (
	cacheMu     sync.Mutex
	sharedCache *charlib.Cache
)

// SetCache installs (or, with nil, removes) a characterisation cache used
// by every subsequent experiment runner in this process.
func SetCache(c *charlib.Cache) {
	cacheMu.Lock()
	sharedCache = c
	cacheMu.Unlock()
}

func activeCache() *charlib.Cache {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return sharedCache
}

// Row is one line of a comparison table.
type Row struct {
	Label      string
	PeakV      float64
	PeakErrPct float64
	AreaVps    float64
	AreaErrPct float64
	WidthPs    float64
	Elapsed    time.Duration
	IsRef      bool
}

// Experiment is one regenerated table or figure.
type Experiment struct {
	ID    string // "table1", "table2", "fig1", "sweep", "speedup", "zolotov"
	Title string
	Rows  []Row
	Notes []string
}

// Quality selects characterisation/simulation effort.
type Quality int

const (
	// Full matches the published EXPERIMENTS.md numbers (fine wire
	// discretisation, 1 ps steps, dense characterisation grids).
	Full Quality = iota
	// Quick is for tests and smoke runs: coarser grids, 2 ps steps.
	Quick
)

func (q Quality) segments() int {
	if q == Quick {
		return 10
	}
	return 25
}

func (q Quality) dt() float64 {
	if q == Quick {
		return 2e-12
	}
	return 1e-12
}

func (q Quality) modelOptions() core.ModelOptions {
	opts := core.ModelOptions{Cache: activeCache()}
	if q == Quick {
		opts.LoadCurve = charlib.LoadCurveOptions{NVin: 41, NVout: 41}
		opts.Prop = charlib.PropOptions{
			Heights: []float64{0.3, 0.6, 0.9, 1.2},
			Widths:  []float64{150e-12, 350e-12, 700e-12},
			Loads:   []float64{40e-15, 90e-15, 160e-15},
			Dt:      2e-12,
		}
	}
	return opts
}

// cluster builds one of the paper's noise clusters from its geometric
// description, as sna builds every design's clusters: on metal layer 4 of
// the named technology card, at q's wire discretisation.
func (q Quality) cluster(techName string, cs sna.ClusterSpec) (*core.Cluster, error) {
	d := sna.Design{Tech: techName, Layer: "M4", Segments: q.segments()}
	return d.BuildCluster(cs)
}

// invAggressor is the aggressor of every paper cluster: an INV X2 whose
// input rises, on a line of the given length at side ("left" or "right")
// of the victim. Its receiver is sna's default, an INV X2 on pin A.
func invAggressor(side string, lengthUm float64) sna.AggressorSpec {
	return sna.AggressorSpec{
		Cell: "INV", Drive: 2, FromState: map[string]bool{"A": false}, SwitchPin: "A",
		LengthUm: lengthUm, Side: side,
	}
}

// table12Victim is the victim of the paper's Tables 1 and 2: a NAND2 X1
// held high with A = 1 and B = 0 (sna's sensitised state for pin B), a
// 0.70 V × 400 ps glitch arriving on B, driving 500 µm into an INV X2.
var table12Victim = sna.VictimSpec{
	Cell: "NAND2", NoisyPin: "B", GlitchHeightV: 0.70, GlitchWidthPs: 400, LengthUm: 500,
}

// Table1Cluster builds the paper's Table 1 test case: "a simple test case
// in 0.13µm technology, consisting of two adjacent coupled nets … extracted
// from two 500µm parallel-running interconnects, designed on metal layer 4,
// where the aggressor cell is an inverter and the victim driver is a
// 2-input nand", with one noise glitch propagating through the victim.
func Table1Cluster(q Quality) (*core.Cluster, error) {
	return q.cluster("cmos130", sna.ClusterSpec{
		Name: "table1", Victim: table12Victim,
		Aggressors: []sna.AggressorSpec{invAggressor("right", 500)},
	})
}

// Table2Cluster builds the paper's Table 2 test case: two in-phase
// aggressors flanking the victim, plus the propagating glitch — the
// worst-case overlap experiment.
func Table2Cluster(q Quality) (*core.Cluster, error) {
	return q.cluster("cmos130", sna.ClusterSpec{
		Name: "table2", Victim: table12Victim,
		Aggressors: []sna.AggressorSpec{invAggressor("left", 500), invAggressor("right", 500)},
	})
}

// evalRow converts an evaluation into a table row with errors vs golden.
func evalRow(label string, ev, golden *core.Evaluation) Row {
	r := Row{
		Label:   label,
		PeakV:   ev.Metrics.Peak,
		AreaVps: ev.Metrics.AreaVps(),
		WidthPs: ev.Metrics.WidthPs(),
		Elapsed: ev.Elapsed,
	}
	if golden == nil || ev == golden {
		r.IsRef = true
		return r
	}
	r.PeakErrPct = 100 * (ev.Metrics.Peak - golden.Metrics.Peak) / golden.Metrics.Peak
	r.AreaErrPct = 100 * (ev.Metrics.Area - golden.Metrics.Area) / golden.Metrics.Area
	return r
}

// prepared bundles a cluster with its models, aligned for worst case.
type prepared struct {
	cluster *core.Cluster
	models  *core.Models
	opts    core.EvalOptions
}

func prepare(ctx context.Context, c *core.Cluster, q Quality, needProp bool) (*prepared, error) {
	mopts := q.modelOptions()
	mopts.SkipProp = !needProp
	models, err := c.BuildModels(ctx, mopts)
	if err != nil {
		return nil, err
	}
	opts := core.EvalOptions{Dt: q.dt()}
	if err := c.AlignWorstCase(ctx, models, opts); err != nil {
		return nil, err
	}
	return &prepared{cluster: c, models: models, opts: opts}, nil
}

func (p *prepared) eval(ctx context.Context, m core.Method) (*core.Evaluation, error) {
	return p.cluster.Evaluate(ctx, m, p.models, p.opts)
}

// RunTable1 regenerates Table 1: injected and propagated noise combination
// — golden (ELDO stand-in) versus linear superposition versus the paper's
// macromodel.
func RunTable1(ctx context.Context, q Quality) (*Experiment, error) {
	c, err := Table1Cluster(q)
	if err != nil {
		return nil, err
	}
	p, err := prepare(ctx, c, q, true)
	if err != nil {
		return nil, err
	}
	golden, err := p.eval(ctx, core.Golden)
	if err != nil {
		return nil, err
	}
	sup, err := p.eval(ctx, core.Superposition)
	if err != nil {
		return nil, err
	}
	mac, err := p.eval(ctx, core.Macromodel)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:    "table1",
		Title: "Table 1: injected and propagated noise combination (0.13um, 500um M4, INV aggressor, NAND2 victim)",
		Rows: []Row{
			evalRow("golden (ELDO stand-in)", golden, nil),
			evalRow("linear superposition", sup, golden),
			evalRow("our macromodel", mac, golden),
		},
		Notes: []string{
			"paper: superposition -22.0% peak / -52.8% area; macromodel +2.6% peak / +0.8% area",
		},
	}, nil
}

// RunTable2 regenerates Table 2: worst-case overlap of two in-phase
// aggressors and one propagating glitch.
func RunTable2(ctx context.Context, q Quality) (*Experiment, error) {
	c, err := Table2Cluster(q)
	if err != nil {
		return nil, err
	}
	p, err := prepare(ctx, c, q, false)
	if err != nil {
		return nil, err
	}
	golden, err := p.eval(ctx, core.Golden)
	if err != nil {
		return nil, err
	}
	mac, err := p.eval(ctx, core.Macromodel)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:    "table2",
		Title: "Table 2: worst-case overlap of two in-phase aggressors and one propagating glitch",
		Rows: []Row{
			evalRow("golden (ELDO stand-in)", golden, nil),
			evalRow("our macromodel", mac, golden),
		},
		Notes: []string{
			"paper: macromodel +3.1% peak / +2.5% area",
		},
	}, nil
}

// RunZolotovContext regenerates the accuracy context the paper quotes for
// its reference [4]: the iterative pulsed-Thevenin victim model, evaluated
// at increasing iteration counts on the Table 1 cluster, bracketed by
// superposition and the macromodel.
func RunZolotovContext(ctx context.Context, q Quality) (*Experiment, error) {
	c, err := Table1Cluster(q)
	if err != nil {
		return nil, err
	}
	p, err := prepare(ctx, c, q, true)
	if err != nil {
		return nil, err
	}
	golden, err := p.eval(ctx, core.Golden)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:    "zolotov",
		Title: "Context [4]: iterative linear victim model (Zolotov et al.) on the Table 1 cluster",
		Rows:  []Row{evalRow("golden (ELDO stand-in)", golden, nil)},
		Notes: []string{
			"paper quotes [4] at -18% peak / -20% width errors; iterations converge toward the non-linear result",
		},
	}
	sup, err := p.eval(ctx, core.Superposition)
	if err != nil {
		return nil, err
	}
	exp.Rows = append(exp.Rows, evalRow("linear superposition", sup, golden))
	for _, passes := range []int{1, 2, 4} {
		opts := p.opts
		opts.ZolotovPasses = passes
		ev, err := c.Evaluate(ctx, core.Zolotov, p.models, opts)
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, evalRow(fmt.Sprintf("zolotov (%d passes)", passes), ev, golden))
	}
	mac, err := p.eval(ctx, core.Macromodel)
	if err != nil {
		return nil, err
	}
	exp.Rows = append(exp.Rows, evalRow("our macromodel", mac, golden))
	return exp, nil
}

// RunSpeedup regenerates the paper's claim C2 ("the speed-up obtained with
// our approach was about 20X with respect to ELDO") on both table clusters.
func RunSpeedup(ctx context.Context, q Quality) (*Experiment, error) {
	exp := &Experiment{
		ID:    "speedup",
		Title: "Claim C2: analysis speed-up of the macromodel engine vs the golden transistor-level simulation",
		Notes: []string{
			"paper: about 20X; pre-characterisation (tables, fits, reduction) is an offline library step in both flows",
		},
	}
	for _, tc := range []struct {
		name  string
		build func(Quality) (*core.Cluster, error)
	}{
		{"table1 cluster", Table1Cluster},
		{"table2 cluster", Table2Cluster},
	} {
		c, err := tc.build(q)
		if err != nil {
			return nil, err
		}
		p, err := prepare(ctx, c, q, false)
		if err != nil {
			return nil, err
		}
		golden, err := p.eval(ctx, core.Golden)
		if err != nil {
			return nil, err
		}
		mac, err := p.eval(ctx, core.Macromodel)
		if err != nil {
			return nil, err
		}
		speedup := float64(golden.Elapsed) / float64(mac.Elapsed)
		exp.Rows = append(exp.Rows,
			Row{Label: tc.name + " golden", PeakV: golden.Metrics.Peak, AreaVps: golden.Metrics.AreaVps(),
				Elapsed: golden.Elapsed, IsRef: true},
			Row{Label: fmt.Sprintf("%s macromodel (%.0fX)", tc.name, speedup),
				PeakV: mac.Metrics.Peak, AreaVps: mac.Metrics.AreaVps(), Elapsed: mac.Elapsed,
				PeakErrPct: 100 * (mac.Metrics.Peak - golden.Metrics.Peak) / golden.Metrics.Peak,
				AreaErrPct: 100 * (mac.Metrics.Area - golden.Metrics.Area) / golden.Metrics.Area},
		)
	}
	return exp, nil
}

// victimInputPeek is used by Fig1 to describe the glitch source.
func victimInputPeek(c *core.Cluster) wave.NoiseMetrics {
	quiet := c.Victim.Cell.PinVoltage(c.Victim.State[c.Victim.NoisyPin])
	w := wave.Triangle(quiet, c.Victim.Glitch.Height, c.Victim.Glitch.Start, c.Victim.Glitch.Width)
	return wave.MeasureNoise(w, quiet)
}

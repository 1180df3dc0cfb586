package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/interconnect"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// fastCluster is a reduced-cost Table-1-style cluster for unit testing:
// coarser wire discretisation and characterisation grids keep the whole
// golden/baseline/macromodel comparison under a second.
func fastCluster(t *testing.T, nAgg int) *Cluster {
	t.Helper()
	return fastClusterOn(t, tech.Tech130(), nAgg)
}

// fastClusterOn is fastCluster on an explicit technology card, for tests
// that cross cluster behaviour with a card axis (corners, nonlinear caps).
func fastClusterOn(t *testing.T, tt *tech.Tech, nAgg int) *Cluster {
	t.Helper()
	lines := []interconnect.LineSpec{{Name: "vic", LengthUm: 500}}
	for i := 0; i < nAgg; i++ {
		lines = append(lines, interconnect.LineSpec{Name: "agg" + string(rune('1'+i)), LengthUm: 500})
	}
	bus, err := interconnect.NewBus(tt, "M4", 8, lines...)
	if err != nil {
		t.Fatal(err)
	}
	nand := cell.MustNew(tt, "NAND2", 1)
	st, err := nand.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() *cell.Cell { return cell.MustNew(tt, "INV", 2) }
	c := &Cluster{
		Tech: tt,
		Bus:  bus,
		Victim: VictimSpec{
			Cell: nand, State: st, NoisyPin: "B",
			Glitch:   GlitchSpec{Height: 0.65, Width: 350e-12, Start: 150e-12},
			Line:     0,
			Receiver: recv(), ReceiverPin: "A",
		},
	}
	for i := 0; i < nAgg; i++ {
		c.Aggressors = append(c.Aggressors, AggressorSpec{
			Cell: cell.MustNew(tt, "INV", 2), FromState: cell.State{"A": false}, SwitchPin: "A",
			Line: i + 1, Receiver: recv(), ReceiverPin: "A",
		})
	}
	return c
}

func fastModelOptions() ModelOptions {
	return ModelOptions{
		LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41},
		Prop: charlib.PropOptions{
			Heights: []float64{0.3, 0.6, 0.9, 1.2},
			Widths:  []float64{150e-12, 350e-12, 700e-12},
			Loads:   []float64{40e-15, 90e-15, 160e-15},
			Dt:      2e-12,
		},
	}
}

func fastEvalOptions() EvalOptions { return EvalOptions{Dt: 2e-12} }

func TestClusterValidate(t *testing.T) {
	c := fastCluster(t, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	bad := fastCluster(t, 1)
	bad.Victim.Line = 5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range victim line accepted")
	}
	bad = fastCluster(t, 1)
	bad.Aggressors[0].Line = 0 // same as victim
	if err := bad.Validate(); err == nil {
		t.Error("doubly driven line accepted")
	}
	bad = fastCluster(t, 1)
	bad.Victim.Glitch.Height = -0.3
	if err := bad.Validate(); err == nil {
		t.Error("negative glitch height accepted")
	}
	bad = fastCluster(t, 1)
	bad.Aggressors[0].FromState = cell.State{"A": false}
	bad.Aggressors[0].Cell = cell.MustNew(tech.Tech130(), "NAND2", 1)
	bad.Aggressors[0].SwitchPin = "B" // with A=0 the NAND output never toggles
	if err := bad.Validate(); err == nil {
		t.Error("non-toggling aggressor accepted")
	}
	bad = fastCluster(t, 1)
	bad.Victim.NoisyPin = "Z" // not an input of the victim cell
	if err := bad.Validate(); err == nil {
		t.Error("unknown victim noisy pin accepted")
	}
}

func TestVictimInputWavePolarity(t *testing.T) {
	c := fastCluster(t, 1)
	w := c.victimInputWave()
	// Noisy pin B is quiet low: the glitch must rise from 0.
	if w.At(0) != 0 {
		t.Errorf("quiet input level = %v", w.At(0))
	}
	m := wave.MeasureNoise(w, 0)
	if m.Sign != 1 || math.Abs(m.Peak-0.65) > 1e-12 {
		t.Errorf("glitch sign %v peak %v", m.Sign, m.Peak)
	}
}

func TestBuildGoldenStructure(t *testing.T) {
	c := fastCluster(t, 2)
	ckt, err := c.BuildGolden()
	if err != nil {
		t.Fatal(err)
	}
	// 4 victim transistors + 2×2 aggressor transistors.
	if len(ckt.Mosfets) != 8 {
		t.Errorf("transistors = %d, want 8", len(ckt.Mosfets))
	}
	for _, node := range []string{"vic.0", "vic.8", "agg1.0", "agg2.0"} {
		if _, ok := ckt.LookupNode(node); !ok {
			t.Errorf("node %s missing from golden netlist", node)
		}
	}
}

func TestBuildModelsStructure(t *testing.T) {
	c := fastCluster(t, 2)
	m, err := c.BuildModels(context.Background(), ModelOptions{SkipProp: true, LoadCurve: charlib.LoadCurveOptions{NVin: 21, NVout: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Prop != nil {
		t.Error("SkipProp ignored")
	}
	if len(m.Agg) != 2 || len(m.AggPorts) != 2 {
		t.Errorf("aggressor models: %d/%d", len(m.Agg), len(m.AggPorts))
	}
	if got := len(m.Red.Ports); got != 4 {
		t.Errorf("ports = %d, want 4 (vic DP, 2 agg DPs, vic recv)", got)
	}
	// Quiet levels: victim high, aggressors start high (INV input low).
	if m.V0[m.VicPort] != 1.2 || m.V0[m.RecvPort] != 1.2 {
		t.Errorf("victim quiet levels wrong: %v", m.V0)
	}
	for _, pi := range m.AggPorts {
		if m.V0[pi] != 1.2 {
			t.Errorf("aggressor start level = %v, want 1.2", m.V0[pi])
		}
	}
	if m.HoldG <= 0 {
		t.Errorf("holding conductance = %v", m.HoldG)
	}
	if m.MillerC <= 0 {
		t.Errorf("Miller cap = %v", m.MillerC)
	}
}

// The headline integration test: the reproduction of the paper's
// qualitative result on a fast cluster. Linear superposition must
// underestimate the total noise by double-digit percent, the Zolotov
// baseline must sit in between, and the paper's macromodel must track the
// golden simulation within a few percent — at a significant speed-up.
func TestMethodsReproducePaperShape(t *testing.T) {
	c := fastCluster(t, 1)
	models, err := c.BuildModels(context.Background(), fastModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastEvalOptions()
	if err := c.AlignWorstCase(context.Background(), models, opts); err != nil {
		t.Fatal(err)
	}
	eval := func(m Method) (*Evaluation, sim.Counters) {
		before := sim.Snapshot()
		ev, err := c.Evaluate(context.Background(), m, models, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ev, sim.Snapshot().Sub(before)
	}
	golden, gw := eval(Golden)
	sup, _ := eval(Superposition)
	zol, _ := eval(Zolotov)
	mac, mw := eval(Macromodel)

	gp, ga := golden.Metrics.Peak, golden.Metrics.Area
	if gp < 0.2 || gp > 1.2 {
		t.Fatalf("golden peak %v V outside the noise-analysis regime", gp)
	}
	if golden.Metrics.Sign != -1 {
		t.Fatalf("golden glitch direction %v, want downward", golden.Metrics.Sign)
	}

	supErr := 100 * (sup.Metrics.Peak - gp) / gp
	macErr := 100 * (mac.Metrics.Peak - gp) / gp
	zolErr := 100 * (zol.Metrics.Peak - gp) / gp
	if supErr > -8 {
		t.Errorf("superposition peak error %+.1f%%, want a clear underestimate", supErr)
	}
	if math.Abs(macErr) > 6 {
		t.Errorf("macromodel peak error %+.1f%%, want within a few percent", macErr)
	}
	if math.Abs(zolErr) >= math.Abs(supErr) {
		t.Errorf("zolotov (%+.1f%%) should improve on superposition (%+.1f%%)", zolErr, supErr)
	}
	supAreaErr := 100 * (sup.Metrics.Area - ga) / ga
	macAreaErr := 100 * (mac.Metrics.Area - ga) / ga
	if supAreaErr > -15 {
		t.Errorf("superposition area error %+.1f%%, want a strong underestimate", supAreaErr)
	}
	if math.Abs(macAreaErr) > 6 {
		t.Errorf("macromodel area error %+.1f%%", macAreaErr)
	}
	// The dedicated engine's advantage, on deterministic work counters: one
	// reduced-order engine run and zero transistor-level solves, against a
	// full transient spending at least one Newton iteration per step. Wall
	// clock on a loaded runner is noisy, so the ratio is only logged.
	if mw.Total() != 0 || mw.EngineRuns != 1 {
		t.Errorf("macromodel did %d DC + %d transient solves and %d engine runs, want 0 + 0 and 1",
			mw.DC, mw.Transient, mw.EngineRuns)
	}
	if gw.Transient != 1 || gw.TransientSteps == 0 || gw.NewtonIters < gw.TransientSteps {
		t.Errorf("golden did %d transients, %d steps, %d Newton iterations; want 1 transient with ≥ 1 iteration per step",
			gw.Transient, gw.TransientSteps, gw.NewtonIters)
	}
	t.Logf("speed-up %.1fX wall clock", float64(golden.Elapsed)/float64(mac.Elapsed))
}

func TestAlignWorstCaseAlignsPeaks(t *testing.T) {
	c := fastCluster(t, 2)
	models, err := c.BuildModels(context.Background(), ModelOptions{SkipProp: true, LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41}})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastEvalOptions()
	if err := c.AlignWorstCase(context.Background(), models, opts); err != nil {
		t.Fatal(err)
	}
	// After alignment the aligned macromodel peak must not be smaller than
	// the unaligned one (it is the worst case).
	aligned, err := c.Evaluate(context.Background(), Macromodel, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2 := fastCluster(t, 2)
	// Deliberately misalign by pushing one aggressor 500 ps late.
	c2.Aggressors[1].Offset = 500e-12
	models2, err := c2.BuildModels(context.Background(), ModelOptions{SkipProp: true, LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41}})
	if err != nil {
		t.Fatal(err)
	}
	misaligned, err := c2.Evaluate(context.Background(), Macromodel, models2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.Metrics.Peak < misaligned.Metrics.Peak-1e-6 {
		t.Errorf("aligned peak %v < misaligned peak %v", aligned.Metrics.Peak, misaligned.Metrics.Peak)
	}
}

// The coordinate ascent probes 8 offsets per aggressor and pass, and runs
// no offset vector twice: pass 2 reads the peak of a vector pass 1 ran off
// the search's list. After the nAgg peak-alignment runs and the one
// baseline run, AlignWorstCase's engine runs are exactly its distinct
// probes — 15/30/13/25 on these rigs, where running each pass in full took
// 18/35/18/35.
func TestAlignWorstCaseProbesEachOffsetOnce(t *testing.T) {
	want := map[string]int64{"cmos130/1": 15, "cmos130/2": 30, "cmos090/1": 13, "cmos090/2": 25}
	for _, tt := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, nAgg := range []int{1, 2} {
			c, models := clusterModels(t, tt, nAgg)
			opts := fastEvalOptions()
			var probes [][]float64
			opts.observe = func(float64, float64) {
				off := make([]float64, nAgg)
				for i := range off {
					off[i] = c.Aggressors[i].Offset
				}
				probes = append(probes, off)
			}
			before := sim.Snapshot()
			if err := c.AlignWorstCase(context.Background(), models, opts); err != nil {
				t.Fatal(err)
			}
			runs := sim.Snapshot().Sub(before).EngineRuns
			name := fmt.Sprintf("%s/%d", tt.Name, nAgg)
			t.Logf("%sagg: %d engine runs", name, runs)
			if runs != want[name] || int64(len(probes)) != runs {
				t.Errorf("%sagg: %d engine runs (%d observed), want %d", name, runs, len(probes), want[name])
			}
			probes = probes[min(nAgg, len(probes)):] // the peak-alignment runs
			for i := range probes {
				for j := range i {
					if slices.EqualFunc(probes[i], probes[j], func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
						t.Errorf("%sagg: probes %d and %d both ran offsets %v", name, j, i, probes[i])
					}
				}
			}
		}
	}
}

func TestEvaluateRequiresModels(t *testing.T) {
	c := fastCluster(t, 1)
	for _, m := range []Method{Superposition, Zolotov, Macromodel} {
		if _, err := c.Evaluate(context.Background(), m, nil, fastEvalOptions()); err == nil {
			t.Errorf("%v with nil models accepted", m)
		}
	}
}

// An aggressor whose input ramp starts before t = 0 is an error, not an
// evaluation: every run starts with the aggressor's port at its
// pre-transition rail, which the ramp has already left, so the macromodel
// would report noise golden does not see. Validate, golden and macromodel
// evaluation and EvaluateScenario each name the aggressor and its start; a
// quiet aggressor has no ramp and is not checked.
func TestNegativeAggressorStartRejected(t *testing.T) {
	ctx := context.Background()
	c := fastCluster(t, 1)
	models, err := c.BuildModels(ctx, ModelOptions{SkipProp: true, LoadCurve: fastModelOptions().LoadCurve})
	if err != nil {
		t.Fatal(err)
	}
	const want = "core: aggressor 0 input ramp starts at -100 ps, before t = 0"
	check := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s with the ramp at -100 ps: err = %v, want %q", what, err, want)
		}
	}
	c.Aggressors[0].Offset = -300e-12 // the ramp's nominal start is 200 ps
	check("Validate", c.Validate())
	for _, m := range []Method{Golden, Macromodel} {
		_, err := c.Evaluate(ctx, m, models, fastEvalOptions())
		check(m.String(), err)
	}
	c.Aggressors[0].Offset = 0
	_, err = c.EvaluateScenario(ctx, Macromodel, models, fastEvalOptions(), []bool{true}, []float64{-100e-12})
	check("EvaluateScenario", err)

	c.Aggressors[0].Offset = -300e-12
	c.Aggressors[0].Quiet = true
	if err := c.Validate(); err != nil {
		t.Errorf("quiet aggressor with a negative offset rejected: %v", err)
	}
}

// A scenario with a non-finite start is an error that leaves every
// aggressor's Quiet and Offset as it found them, the aggressors before the
// bad one included: a later classical evaluation must see the cluster
// unmoved.
func TestEvaluateScenarioBadStartMovesNothing(t *testing.T) {
	ctx := context.Background()
	c, models := clusterModels(t, tech.Tech130(), 2)
	type state struct {
		quiet  bool
		offset float64
	}
	snapshot := func() []state {
		var s []state
		for _, a := range c.Aggressors {
			s = append(s, state{a.Quiet, a.Offset})
		}
		return s
	}
	want := snapshot()
	for _, tc := range []struct {
		active []bool
		starts []float64
	}{
		{[]bool{true, true}, []float64{300e-12, math.NaN()}},
		{[]bool{false, true}, []float64{0, math.Inf(1)}},
	} {
		_, err := c.EvaluateScenario(ctx, Macromodel, models, fastEvalOptions(), tc.active, tc.starts)
		if err == nil {
			t.Errorf("active %v starts %v: no error", tc.active, tc.starts)
		}
		if got := snapshot(); !slices.Equal(got, want) {
			t.Errorf("active %v starts %v: aggressors (quiet, offset) %v, want %v unchanged", tc.active, tc.starts, got, want)
		}
	}
}

func TestMillerExtensionStaysAccurate(t *testing.T) {
	c := fastCluster(t, 1)
	models, err := c.BuildModels(context.Background(), ModelOptions{SkipProp: true, LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41}})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastEvalOptions()
	golden, err := c.Evaluate(context.Background(), Golden, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	mopts := opts
	mopts.Miller = true
	mil, err := c.Evaluate(context.Background(), Macromodel, models, mopts)
	if err != nil {
		t.Fatal(err)
	}
	errP := 100 * (mil.Metrics.Peak - golden.Metrics.Peak) / golden.Metrics.Peak
	if math.Abs(errP) > 6 {
		t.Errorf("macromodel+Miller peak error %+.1f%%", errP)
	}
}

func TestEventHorizonCoversEvents(t *testing.T) {
	c := fastCluster(t, 1)
	c.Aggressors[0].Offset = 2e-9
	if got := c.EventHorizon(); got < 2e-9 {
		t.Errorf("EventHorizon = %v, does not cover shifted aggressor", got)
	}
}

func TestMethodString(t *testing.T) {
	if Golden.String() != "golden" || Macromodel.String() != "macromodel" ||
		Superposition.String() != "superposition" || Zolotov.String() != "zolotov" {
		t.Error("Method.String wrong")
	}
	if Method(99).String() == "" {
		t.Error("unknown method string empty")
	}
}

// The alignment search's objective reads the engine's slices in place; it
// must equal the full evaluation's driving-point peak bit for bit, at every
// offset the search might probe, with and without the Miller capacitor.
func TestMacromodelPeakMatchesEvaluation(t *testing.T) {
	ctx := context.Background()
	for _, tt := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, nAgg := range []int{1, 2} {
			c, models := clusterModels(t, tt, nAgg)
			opts := fastEvalOptions().normalize(c)
			base := c.Aggressors[nAgg-1].Offset
			for _, off := range []float64{-80e-12, -20e-12, 0, 40e-12, 160e-12} {
				for _, miller := range []bool{false, true} {
					c.Aggressors[nAgg-1].Offset = base + off
					opts.Miller = miller
					got, err := c.macromodelPeak(ctx, models, opts)
					if err != nil {
						t.Fatal(err)
					}
					ev, err := c.evaluateMacromodel(ctx, models, opts)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(ev.Metrics.Peak) {
						t.Errorf("%s/%dagg offset %+g ps miller=%v: probe peak %v, evaluation %v",
							tt.Name, nAgg, off*1e12, miller, got, ev.Metrics.Peak)
					}
				}
			}
		}
	}
}

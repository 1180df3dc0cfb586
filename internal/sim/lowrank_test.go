package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/interconnect"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// goldenShapedCircuit is the shape of a golden noise-cluster bench: a
// victim driver cell (its noisy pin glitching, the others holding the
// sensitised state) and a switching INV aggressor drive two coupled RC
// lines of the given number of segments into receiver caps.
func goldenShapedCircuit(tb testing.TB, tc *tech.Tech, victim string, segments int) *circuit.Circuit {
	tb.Helper()
	bus, err := interconnect.NewBus(tc, "M4", segments,
		interconnect.LineSpec{Name: "vic", LengthUm: 500},
		interconnect.LineSpec{Name: "agg", LengthUm: 500},
	)
	if err != nil {
		tb.Fatal(err)
	}
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	bus.Build(ckt)

	vc := cell.MustNew(tc, victim, 1)
	noisy := vc.Inputs()[len(vc.Inputs())-1]
	st, err := vc.SensitizedState(noisy, true)
	if err != nil {
		tb.Fatal(err)
	}
	pins := map[string]string{}
	for _, in := range vc.Inputs() {
		node := "vic_in_" + in
		pins[in] = node
		if in == noisy {
			ckt.AddV("vglitch", node, "0", wave.Triangle(0, 0.6*tc.VDD, 150e-12, 300e-12))
		} else {
			ckt.AddVDC("vvic_"+in, node, "0", vc.PinVoltage(st[in]))
		}
	}
	if err := vc.Build(ckt, "vic", pins, bus.InNode(0), "vdd"); err != nil {
		tb.Fatal(err)
	}
	ckt.AddC("crecv_vic", bus.OutNode(0), "0", 4e-15)

	agg := cell.MustNew(tc, "INV", 2)
	ckt.AddV("vagg", "agg_in", "0", wave.SaturatedRamp(0, tc.VDD, 200e-12, 60e-12))
	if err := agg.Build(ckt, "agg", map[string]string{"A": "agg_in"}, bus.InNode(1), "vdd"); err != nil {
		tb.Fatal(err)
	}
	ckt.AddC("crecv_agg", bus.OutNode(1), "0", 4e-15)
	return ckt
}

// addLadder appends an RC line of the given number of segments
// (100 Ω and 5 fF each) from node from to the node "ladder_end".
func addLadder(ckt *circuit.Circuit, from string, segments int) {
	prev := from
	for i := 1; i <= segments; i++ {
		node := fmt.Sprintf("ladder%d", i)
		if i == segments {
			node = "ladder_end"
		}
		ckt.AddR(fmt.Sprintf("rl%d", i), prev, node, 100)
		ckt.AddC(fmt.Sprintf("cl%d", i), node, "0", 5e-15)
		prev = node
	}
}

// maxNodeDiff returns the largest |got − want| over every node-voltage
// sample; the time axes must agree exactly.
func maxNodeDiff(t *testing.T, got, want *Result) float64 {
	t.Helper()
	if got.Steps() != want.Steps() {
		t.Fatalf("sample counts differ: %d vs %d", got.Steps(), want.Steps())
	}
	for i := range got.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("time grid differs at sample %d", i)
		}
	}
	worst := 0.0
	for n := range got.nodeV {
		for i, v := range got.nodeV[n] {
			if d := math.Abs(v - want.nodeV[n][i]); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
	}
	return worst
}

// runBoth runs prog once on its own path and once forced onto the dense
// Newton, from fresh sessions with the same predictor mode, and returns
// both results with each session's counters.
func runBoth(t *testing.T, prog *Program, pred bool, tstop float64) (got, dense *Result, gs, ds Counters) {
	t.Helper()
	run := func(forceDense bool) (*Result, Counters) {
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.forceDense = forceDense
		sess.Seed(pred)
		res, err := transientOf(context.Background(), sess, tstop)
		if err != nil {
			t.Fatal(err)
		}
		return res, sess.Stats()
	}
	got, gs = run(false)
	dense, ds = run(true)
	return got, dense, gs, ds
}

// TestLowRankMatchesDense runs golden-shaped benches — INV and NAND2
// victims with an INV aggressor on coupled RC lines of 8–40 segments, on
// both cards, with and without the NLMOS gate charge, predictor on and
// off — on the factored step loop and forced onto the dense Newton. The
// two solve the same Newton iterates in exact arithmetic, so every sample
// agrees to 1e-12 V and the step and Newton-iteration counts are equal.
func TestLowRankMatchesDense(t *testing.T) {
	type bench struct {
		victim   string
		segments int
		preds    []bool
	}
	benches := []bench{
		{"INV", 8, []bool{false, true}},
		{"NAND2", 8, []bool{false, true}},
		{"INV", 20, []bool{false, true}},
		{"NAND2", 20, []bool{false, true}},
		{"INV", 40, []bool{true}},
		{"NAND2", 40, []bool{true}},
	}
	worst, runs := 0.0, 0
	for _, base := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, tc := range []*tech.Tech{base, base.WithNonlinearCaps()} {
			for _, b := range benches {
				if b.segments == 40 && (base.Name != "cmos130" || !tc.NonlinearCaps()) {
					continue // one 40-segment card keeps the suite quick
				}
				prog := Compile(goldenShapedCircuit(t, tc, b.victim, b.segments))
				if !prog.lr.use {
					t.Fatalf("%s/%s/%d: golden-shaped bench (size %d, r %d) not on the factored path",
						tc.Fingerprint(), b.victim, b.segments, prog.size, len(prog.lr.rows))
				}
				for _, pred := range b.preds {
					name := fmt.Sprintf("%s nlcaps=%v %s/%d pred=%v", base.Name, tc.NonlinearCaps(), b.victim, b.segments, pred)
					got, dense, gs, ds := runBoth(t, prog, pred, 400e-12)
					d := maxNodeDiff(t, got, dense)
					if !(d <= 1e-12) {
						t.Errorf("%s: factored run differs from dense by %.3g V", name, d)
					}
					worst, runs = max(worst, d), runs+1
					if gs.LowRankRuns != 1 || ds.LowRankRuns != 0 || gs.LowRankFallbacks != 0 {
						t.Errorf("%s: LowRankRuns %d/%d (want 1/0), fallbacks %d", name, gs.LowRankRuns, ds.LowRankRuns, gs.LowRankFallbacks)
					}
					if gs.TransientSteps != ds.TransientSteps || gs.NewtonIters != ds.NewtonIters {
						t.Errorf("%s: steps %d/%d, Newton iterations %d/%d, want equal",
							name, gs.TransientSteps, ds.TransientSteps, gs.NewtonIters, ds.NewtonIters)
					}
					if pred && gs.PredictorSeeds != ds.PredictorSeeds {
						t.Errorf("%s: predictor seeds %d/%d", name, gs.PredictorSeeds, ds.PredictorSeeds)
					}
				}
			}
		}
	}
	t.Logf("worst |Δv| against the dense Newton over %d runs: %.3g V", runs, worst)
}

// TestLowRankShapeRule pins the path selection on the program's shape: the
// golden-shaped benches take it — the 27-unknown NAND2 bench with NLMOS
// caps (r = 7) included, which a 4r ≤ n rule would keep dense — while
// every cell-sized characterisation rig, and any program with a device
// node held by neither a source nor a capacitor, stays dense. A linear
// program is the r = 0 case.
func TestLowRankShapeRule(t *testing.T) {
	nl := tech.Tech130().WithNonlinearCaps()
	golden := []struct {
		prog    *Program
		size, r int
	}{
		{Compile(goldenShapedCircuit(t, tech.Tech130(), "NAND2", 8)), 27, 4},
		{Compile(goldenShapedCircuit(t, nl, "NAND2", 8)), 27, 7},
		{Compile(goldenShapedCircuit(t, nl, "INV", 8)), 24, 5},
		{Compile(rcLadderCircuit(t)), 8, 0},
	}
	for _, g := range golden {
		if !g.prog.lr.use || g.prog.size != g.size || len(g.prog.lr.rows) != g.r {
			t.Errorf("size %d r %d use %v, want size %d r %d on the factored path",
				g.prog.size, len(g.prog.lr.rows), g.prog.lr.use, g.size, g.r)
		}
	}
	for _, tc := range []*tech.Tech{tech.Tech130(), nl} {
		for _, kind := range []string{"INV", "NAND2", "NAND3", "AOI21"} {
			cl := cell.MustNew(tc, kind, 1)
			pin := cl.Inputs()[0]
			st, err := cl.SensitizedState(pin, true)
			if err != nil {
				t.Fatal(err)
			}
			prog := Compile(buildGlitchBench(t, cl, st, pin, wave.Constant(0), 20e-15))
			if prog.lr.use {
				t.Errorf("%s rig (nlcaps=%v, size %d) takes the factored path; characterisation must stay dense",
					kind, tc.NonlinearCaps(), prog.size)
			}
		}
	}
	if prog := Compile(caplessDeviceCircuit()); prog.lr.use {
		t.Error("a device node with no capacitor and no source takes the factored path")
	}
}

// caplessDeviceCircuit is an inverter whose output node carries no
// capacitor — only the transistors and a 100 Ω link into a 20-segment RC
// line — so the step matrix holds gmin alone on that device row.
func caplessDeviceCircuit() *circuit.Circuit {
	tc := tech.Tech130()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	ckt.AddV("vin", "in", "0", wave.SaturatedRamp(0, tc.VDD, 100e-12, 80e-12))
	ckt.AddM("mp", "out", "in", "vdd", tc.PMOSDevice(2*tc.WUnit*tc.PNRatio))
	ckt.AddM("mn", "out", "in", "0", tc.NMOSDevice(2*tc.WUnit))
	addLadder(ckt, "out", 20)
	return ckt
}

// TestLowRankCaplessDeviceNodeStaysDense runs the capacitor-less device
// node netlist: the guard keeps it on the dense Newton, so it runs exactly
// the dense arithmetic — bit for bit a forced-dense run — and counts no
// factored run.
func TestLowRankCaplessDeviceNodeStaysDense(t *testing.T) {
	got, dense, gs, ds := runBoth(t, Compile(caplessDeviceCircuit()), false, 400e-12)
	if i := sameSamples(got, dense); i >= 0 || got.Steps() != dense.Steps() {
		t.Fatalf("guarded dense run differs from the forced-dense run at sample %d", i)
	}
	if gs != ds || gs.LowRankRuns != 0 || gs.NewtonIters == 0 {
		t.Errorf("counters %+v vs forced dense %+v, want equal with no factored run", gs, ds)
	}
}

// TestLowRankZeroCapRunsDense covers the run-time half of the guard: a
// device row whose only capacitor is set to zero by SetLoad leaves the
// step matrix with gmin there, so that run falls back to the dense Newton;
// restoring the load restores the factored path.
func TestLowRankZeroCapRunsDense(t *testing.T) {
	tc := tech.Tech130()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	ckt.AddV("vin", "in", "0", wave.SaturatedRamp(0, tc.VDD, 100e-12, 80e-12))
	ckt.AddM("mp", "out", "in", "vdd", tc.PMOSDevice(2*tc.WUnit*tc.PNRatio))
	ckt.AddM("mn", "out", "in", "0", tc.NMOSDevice(2*tc.WUnit))
	ckt.AddC("cout", "out", "0", 5e-15)
	addLadder(ckt, "out", 20)
	prog := Compile(ckt)
	if !prog.lr.use {
		t.Fatal("inverter into a 20-segment line not on the factored path")
	}
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	h := prog.MustCap("cout")
	for _, tc := range []struct {
		c    float64
		runs int64
	}{{0, 0}, {5e-15, 1}} {
		sess.SetLoad(h, tc.c)
		before := sess.Stats()
		if _, err := transientOf(context.Background(), sess, 200e-12); err != nil {
			t.Fatal(err)
		}
		if got := sess.Stats().Sub(before).LowRankRuns; got != tc.runs {
			t.Errorf("cout = %g: LowRankRuns %d, want %d", tc.c, got, tc.runs)
		}
	}
}

// TestLowRankFallbackResolvesDense forces the first rank-r correction of a
// run to fail: that step is re-solved from the same seed on the dense
// Newton, counted once in LowRankFallbacks, and the run still matches the
// dense one — with exactly one extra Newton iteration, the failed one.
func TestLowRankFallbackResolvesDense(t *testing.T) {
	prog := Compile(goldenShapedCircuit(t, tech.Tech130(), "NAND2", 8))
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	sess.failCorrections = 1
	got, err := transientOf(context.Background(), sess, 400e-12)
	if err != nil {
		t.Fatal(err)
	}
	_, dense, _, ds := runBoth(t, prog, false, 400e-12)
	gs := sess.Stats()
	if gs.LowRankFallbacks != 1 || gs.LowRankRuns != 1 {
		t.Errorf("LowRankFallbacks %d, LowRankRuns %d, want 1 and 1", gs.LowRankFallbacks, gs.LowRankRuns)
	}
	if gs.TransientSteps != ds.TransientSteps || gs.NewtonIters != ds.NewtonIters+1 {
		t.Errorf("steps %d/%d, Newton iterations %d, want %d steps and %d iterations",
			gs.TransientSteps, ds.TransientSteps, gs.NewtonIters, ds.TransientSteps, ds.NewtonIters+1)
	}
	if d := maxNodeDiff(t, got, dense); !(d <= 1e-12) {
		t.Errorf("run with a dense re-solved step differs from dense by %.3g V", d)
	}
}

// TestLowRankMemoryBytesCountsBuffers checks that MemoryBytes grows by the
// transient system matrix and the factored loop's buffers — W above all —
// once a run has allocated them.
func TestLowRankMemoryBytesCountsBuffers(t *testing.T) {
	prog := Compile(goldenShapedCircuit(t, tech.Tech130(), "INV", 8))
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.MemoryBytes()
	if _, err := transientOf(context.Background(), sess, 50e-12); err != nil {
		t.Fatal(err)
	}
	// The step matrix lin (size × size) and W (size × r).
	size, r := int64(prog.size), int64(len(prog.lr.rows))
	if grown, want := sess.MemoryBytes()-before, 8*size*(size+r); grown < want {
		t.Errorf("MemoryBytes grew by %d after a factored run, want ≥ %d", grown, want)
	}
}

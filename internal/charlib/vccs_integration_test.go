package charlib

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// lcVCCS adapts a characterised load curve to the simulator's VCCS element,
// so the table can be dropped into a full netlist in place of the
// transistor-level cell.
type lcVCCS struct{ lc *LoadCurve }

func (a lcVCCS) Eval(vc, vo float64) (float64, float64, float64) {
	return a.lc.Eval(vc, vo)
}

// The table-replaces-transistors test: simulate the same noise event twice,
// once with the transistor-level NAND2 and once with its characterised VCCS
// table (plus the lumped driving-point parasitics), inside the *same*
// general-purpose simulator. This validates eq. (1) end to end,
// independently of the dedicated macromodel engine.
func TestVCCSTableReplacesTransistors(t *testing.T) {
	tt := tech.Tech130()
	nand := cell.MustNew(tt, "NAND2", 1)
	st, err := nand.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	lc, _, err := characterizeLoadCurve(context.Background(), nand, st, "B", LoadCurveOptions{NVin: 41, NVout: 41}, true)
	if err != nil {
		t.Fatal(err)
	}

	glitch := wave.Triangle(0, 0.8, 150e-12, 400e-12)
	const load = 60e-15
	const tstop = 1.6e-9
	// run simulates ckt to tstop on a fresh 1 ps session, seeding the
	// named nodes' Newton guesses.
	run := func(ckt *circuit.Circuit, guess map[string]float64) *sim.Result {
		t.Helper()
		sess, err := sim.NewSession(sim.Compile(ckt), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range guess {
			sess.SetGuess(name, v)
		}
		var res sim.Result
		if err := sess.RunTransient(context.Background(), &res, tstop, nil); err != nil {
			t.Fatal(err)
		}
		return &res
	}

	// Golden: transistor cell driving the load, inputs at the state rails,
	// glitch on B.
	golden := circuit.New()
	golden.AddVDC("vdd", "vdd", "0", tt.VDD)
	golden.AddVDC("va", "a", "0", tt.VDD)
	golden.AddV("vb", "b", "0", glitch)
	if err := nand.Build(golden, "dut", map[string]string{"A": "a", "B": "b"}, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	golden.AddC("cl", "out", "0", load)
	gRes := run(golden, nil)

	// Table: VCCS element controlled by the same glitch node, with the
	// driving-point parasitics the macromodel lumps there.
	table := circuit.New()
	table.AddV("vb", "b", "0", glitch)
	table.AddVCCS("xvccs", "b", "out", lcVCCS{lc: lc})
	dpCap := load + nand.OutputCap() + nand.OutputFixedGateCap("B") + nand.ConnectedInternalNodeCap(st)
	table.AddC("cl", "out", "0", dpCap)
	// Seed the quiet level; the VCCS holds it thereafter.
	tRes := run(table, map[string]float64{"out": tt.VDD})

	gm := wave.MeasureNoise(gRes.Waveform("out"), tt.VDD)
	tm := wave.MeasureNoise(tRes.Waveform("out"), tt.VDD)
	if gm.Sign != -1 || tm.Sign != -1 {
		t.Fatalf("glitch directions: golden %v table %v", gm.Sign, tm.Sign)
	}
	if rel := math.Abs(tm.Peak-gm.Peak) / gm.Peak; rel > 0.10 {
		t.Errorf("table peak %v vs golden %v (rel %.1f%%)", tm.Peak, gm.Peak, 100*rel)
	}
	if rel := math.Abs(tm.Area-gm.Area) / gm.Area; rel > 0.12 {
		t.Errorf("table area %v vs golden %v (rel %.1f%%)", tm.Area, gm.Area, 100*rel)
	}
	// Both must recover to the quiet rail.
	if v := tRes.Waveform("out").At(tstop); math.Abs(v-tt.VDD) > 0.02 {
		t.Errorf("table model did not recover: %v", v)
	}
}

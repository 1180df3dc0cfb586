package charlib

import (
	"context"
	"fmt"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// BenchmarkINVLoadCurveSweep times the full INV load-curve sweep at the
// production grid (61×61 warm-started DC points) with allocation tracking.
// Before/after numbers live in EXPERIMENTS.md.
func BenchmarkINVLoadCurveSweep(b *testing.B) {
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := characterizeLoadCurve(context.Background(), inv, st, "A",
			LoadCurveOptions{NVin: 61, NVout: 61}, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNAND2LoadCurveSweepFine runs the sweep on the fine 121×121
// NAND2 grid — the workload class (stacked devices, internal nodes) where
// warm starting pays beyond the INV iteration floor.
func BenchmarkNAND2LoadCurveSweepFine(b *testing.B) {
	t := tech.Tech130()
	nand := cell.MustNew(t, "NAND2", 1)
	st, err := nand.SensitizedState("B", true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := characterizeLoadCurve(context.Background(), nand, st, "B",
			LoadCurveOptions{NVin: 121, NVout: 121}, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadCurveSweepParallel characterises the same cell from many
// goroutines at once, each compiling its own rig from the shared cell and
// tech card. It exists for the CI -race smoke: cross-goroutine state
// leaking through the shared inputs (or through sim.Program internals)
// would surface here.
func BenchmarkLoadCurveSweepParallel(b *testing.B) {
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := characterizeLoadCurve(context.Background(), inv, st, "A",
				LoadCurveOptions{NVin: 9, NVout: 9}, true); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// legacyLoadCurvePoint replicates the pre-refactor per-point flow: build a
// fresh circuit and solve its DC on a fresh session for a single (vin,
// vout) grid point.
func legacyLoadCurvePoint(cl *cell.Cell, st cell.State, noisyPin string, vin, vout, quietOut float64) (float64, error) {
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		v := cl.PinVoltage(st[in])
		if in == noisyPin {
			v = vin
		}
		ckt.AddVDC("v_"+in, node, "0", v)
	}
	if err := cl.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		return 0, err
	}
	ckt.AddVDC("vforce", "out", "0", vout)
	sess, err := sim.NewSession(sim.Compile(ckt), 0)
	if err != nil {
		return 0, err
	}
	g := internalGuess(vout, quietOut)
	sess.SetGuess("dut.n1", g)
	sess.SetGuess("dut.n2", g)
	var dc sim.DCResult
	if err := sess.RunDC(&dc); err != nil {
		return 0, err
	}
	return dc.BranchI("vforce"), nil
}

// TestLoadCurveSweepMatchesLegacyBitForBit compares the compiled
// session-backed sweep, run as the cold reference, against fresh per-point
// circuits (the pre-refactor flow) on a small grid, for INV and NAND2 on
// both technology cards. The currents must agree bit-for-bit — the
// compiled path performs identical arithmetic, it only skips redundant
// assembly.
func TestLoadCurveSweepMatchesLegacyBitForBit(t *testing.T) {
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			cl := cell.MustNew(tc, kind, 1)
			noisy := cl.Inputs()[len(cl.Inputs())-1]
			t.Run(fmt.Sprintf("%s_vdd%.1f", cl.Name(), tc.VDD), func(t *testing.T) {
				st, err := cl.SensitizedState(noisy, true)
				if err != nil {
					t.Fatal(err)
				}
				opts := LoadCurveOptions{NVin: 7, NVout: 7}
				lc, _, err := characterizeLoadCurve(context.Background(), cl, st, noisy, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				quietOut := cl.PinVoltage(cl.Logic(st))
				dvin := (lc.VinMax - lc.VinMin) / float64(lc.NVin-1)
				dvout := (lc.VoutMax - lc.VoutMin) / float64(lc.NVout-1)
				for iv := 0; iv < lc.NVin; iv++ {
					for io := 0; io < lc.NVout; io++ {
						vin := lc.VinMin + float64(iv)*dvin
						vout := lc.VoutMin + float64(io)*dvout
						want, err := legacyLoadCurvePoint(cl, st, noisy, vin, vout, quietOut)
						if err != nil {
							t.Fatalf("legacy point vin=%g vout=%g: %v", vin, vout, err)
						}
						if got := lc.I[iv*lc.NVout+io]; got != want {
							t.Fatalf("vin=%g vout=%g: I = %v (compiled) vs %v (legacy)",
								vin, vout, got, want)
						}
					}
				}
			})
		}
	}
}

// BenchmarkPropTableTransient times a propagation-table characterisation
// on a reduced 2×2×2 grid (8 glitch transients per table, enough to expose
// per-run costs without the full production grid's runtime) with
// allocation tracking: every (height, width, load) probe reuses one
// compiled sim.Session *and* one transient result buffer
// (sim.Session.RunTransientAdaptive), so the sweep's per-probe allocations
// are its glitch waveform and measurement only (numbers in
// EXPERIMENTS.md). transient-steps/op and newton-iters/op are the work of
// one table, the adaptive time axis's step cut (DESIGN.md §21).
func BenchmarkPropTableTransient(b *testing.B) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	opts := PropOptions{
		Heights: []float64{0.4, 0.9},
		Widths:  []float64{150e-12, 400e-12},
		Loads:   []float64{30e-15, 120e-15},
		Dt:      2e-12,
	}
	b.ReportAllocs()
	before := sim.Snapshot()
	for i := 0; i < b.N; i++ {
		if _, _, err := characterizePropagation(context.Background(), inv, st, "A", opts, propSeeded); err != nil {
			b.Fatal(err)
		}
	}
	work := sim.Snapshot().Sub(before)
	b.ReportMetric(float64(work.TransientSteps)/float64(b.N), "transient-steps/op")
	b.ReportMetric(float64(work.NewtonIters)/float64(b.N), "newton-iters/op")
}

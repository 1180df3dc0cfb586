package sim

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// glitchRig builds the canonical nonlinear glitch-propagation rig: a gate
// of the given kind with a triangle glitch on one input and a capacitive
// load, the same shape the prop-table and NRC characterisations sweep.
func glitchRig(t testing.TB, tc *tech.Tech, kind string) *circuit.Circuit {
	t.Helper()
	c := cell.MustNew(tc, kind, 1)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	pins := map[string]string{"A": "in_A"}
	ckt.AddV("v_A", "in_A", "0", wave.Triangle(0, 0.9*tc.VDD, 50e-12, 400e-12))
	if kind == "NAND2" {
		pins["B"] = "in_B"
		ckt.AddVDC("v_B", "in_B", "0", tc.VDD) // B high: A controls
	}
	if err := c.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", 30e-15)
	return ckt
}

// TestPredictorCutsNewtonIterations asserts the predictor's reason to
// exist with a counter floor: on INV and NAND2 glitch rigs, polynomial
// seeding must cut the transient Newton iterations by at least 20%
// relative to the legacy previous-point seed, without a single fallback.
func TestPredictorCutsNewtonIterations(t *testing.T) {
	for _, kind := range []string{"INV", "NAND2"} {
		t.Run(kind, func(t *testing.T) {
			prog := Compile(glitchRig(t, tech.Tech130(), kind))
			const tstop = 600e-12

			run := func(pred bool) (Counters, *Result) {
				sess, err := NewSession(prog, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				sess.Seed(pred)
				res, err := transientOf(context.Background(), sess, tstop)
				if err != nil {
					t.Fatal(err)
				}
				return sess.Stats(), res
			}
			cold, coldRes := run(false)
			pred, predRes := run(true)

			if cold.PredictorSeeds != 0 {
				t.Fatalf("predictor-off run recorded %d seeds", cold.PredictorSeeds)
			}
			if want := pred.TransientSteps - 1; pred.PredictorSeeds != want {
				// Seeding starts at the second step, once two history
				// points exist.
				t.Errorf("PredictorSeeds = %d, want %d", pred.PredictorSeeds, want)
			}
			if pred.PredictorFallbacks != 0 {
				t.Errorf("%d predictor fallbacks on a smooth glitch rig, want 0", pred.PredictorFallbacks)
			}
			if pred.NewtonIters >= cold.NewtonIters {
				t.Fatalf("predictor did not reduce Newton iterations: %d vs %d",
					pred.NewtonIters, cold.NewtonIters)
			}
			cut := 1 - float64(pred.NewtonIters)/float64(cold.NewtonIters)
			t.Logf("%s: Newton iterations %d → %d (%.1f%% cut)",
				kind, cold.NewtonIters, pred.NewtonIters, 100*cut)
			if cut < 0.20 {
				t.Errorf("predictor cut Newton iterations by %.1f%%, want >= 20%%", 100*cut)
			}

			// The predictor changes the Newton seed, not the converged
			// solution: waveforms must agree to solver tolerance.
			if coldRes.Steps() != predRes.Steps() {
				t.Fatalf("step counts differ: %d vs %d", coldRes.Steps(), predRes.Steps())
			}
			for n := range coldRes.nodeV {
				for i := range coldRes.nodeV[n] {
					if dv := math.Abs(coldRes.nodeV[n][i] - predRes.nodeV[n][i]); dv > 1e-6 {
						t.Fatalf("node %d diverges by %g V at step %d", n, dv, i)
					}
				}
			}
		})
	}
}

// TestPredictorFallbackRecovers forces the extrapolated seed to miss — a
// square-edged stimulus makes a quadratic history a poor predictor — and
// requires the run to still converge, proving the transparent re-solve
// from the previous point. The fallback counter may legitimately stay
// zero when Newton digests the bad seed anyway; correctness of the result
// is the contract.
func TestPredictorFallbackRecovers(t *testing.T) {
	tc := tech.Tech130()
	inv := cell.MustNew(tc, "INV", 1)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	// Near-vertical edges: 1 ps rise after a long flat run.
	ckt.AddV("v_A", "in_A", "0", wave.SaturatedRamp(0, tc.VDD, 100e-12, 1e-12))
	if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", 30e-15)
	prog := Compile(ckt)

	run := func(pred bool) *Result {
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(pred)
		res, err := transientOf(context.Background(), sess, 300e-12)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(false)
	pred := run(true)
	for i := 0; i < cold.Steps(); i++ {
		if dv := math.Abs(cold.At("out", i) - pred.At("out", i)); dv > 1e-6 {
			t.Fatalf("predictor run diverges by %g V at step %d", dv, i)
		}
	}
}

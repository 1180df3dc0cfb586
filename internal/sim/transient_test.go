package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// TestTransientStepCountExact pins the indexed time grid (t = k·Dt): at
// large tstop/Dt ratios the legacy accumulating loop (t += h) drifted by
// an ulp per step and could drop or duplicate the final step; the indexed
// loop must produce exactly round(tstop/Dt) steps plus the operating
// point, with an exactly reproducible grid. A stop time below Dt/2 rounds
// to no step at all, and such a run is an *OptionsError on Dt, not a
// record of the operating point alone (GridSteps).
func TestTransientStepCountExact(t *testing.T) {
	cases := []struct {
		name      string
		dt, tstop float64
		want      int // recorded points, OP included; 0: rejected
	}{
		{"exact_multiple", 1e-12, 1e-9, 1001},
		{"long_run", 1e-12, 2e-7, 200001},
		{"odd_ratio", 2e-12, 777.7e-12, 390},  // 777.7/2 = 388.85 → 389 steps
		{"sub_half_step", 1e-12, 0.4e-12, 0},  // below Dt/2: no step, rejected
		{"near_half_step", 1e-12, 0.6e-12, 2}, // above Dt/2: one step
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckt := circuit.New()
			ckt.AddV("vin", "a", "0", wave.SaturatedRamp(0, 1.0, 10e-12, 40e-12))
			ckt.AddR("r", "a", "b", 1000)
			ckt.AddC("c", "b", "0", 10e-15)
			sess, err := NewSession(Compile(ckt), tc.dt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := transientOf(context.Background(), sess, tc.tstop)
			if tc.want == 0 {
				var oe *OptionsError
				if !errors.As(err, &oe) || oe.Field != "Dt" {
					t.Fatalf("err = %v, want an *OptionsError on Dt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps() != tc.want {
				t.Fatalf("recorded %d points, want %d", res.Steps(), tc.want)
			}
			for k, tm := range res.Times {
				if want := float64(k) * tc.dt; tm != want {
					t.Fatalf("step %d at t=%g, want exactly %g", k, tm, want)
				}
			}
		})
	}
}

// TestTransientOPCapCurrentIsZero is the regression test for the
// documented iPrev semantics: the transient starts from a converged DC
// operating point, where capacitors carry exactly zero current, so the
// zeroed trapezoidal history is exact — even when SetGuess perturbs the
// Newton *seed* away from steady state. With constant inputs the run must
// therefore stay flat; a spurious initial capacitor current would kick the
// trapezoidal integrator into a decaying oscillation from t = 0.
func TestTransientOPCapCurrentIsZero(t *testing.T) {
	build := func(t *testing.T) (*Session, string) {
		tc := tech.Tech130()
		inv := cell.MustNew(tc, "INV", 1)
		ckt := circuit.New()
		ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
		ckt.AddVDC("v_A", "in_A", "0", 0) // constant input: a true steady state
		if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cl", "out", "0", 30e-15)
		sess, err := NewSession(Compile(ckt), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		return sess, "out"
	}

	t.Run("steady", func(t *testing.T) {
		sess, out := build(t)
		assertFlat(t, sess, out)
	})
	t.Run("perturbed_guess", func(t *testing.T) {
		// The guess only seeds Newton; the converged OP — and therefore
		// the zero capacitor current — must be unchanged.
		sess, out := build(t)
		sess.SetGuess(out, 0.3)
		assertFlat(t, sess, out)
	})
}

func assertFlat(t *testing.T, sess *Session, node string) {
	t.Helper()
	res, err := transientOf(context.Background(), sess, 200e-12)
	if err != nil {
		t.Fatal(err)
	}
	v0 := res.At(node, 0)
	for i := 0; i < res.Steps(); i++ {
		if dv := math.Abs(res.At(node, i) - v0); dv > 1e-6 {
			t.Fatalf("output moved %g V at step %d from a steady operating point", dv, i)
		}
	}
}

// TestTransientStepAllocFree asserts the RunTransient contract on every
// solver path — linear fast path, dense Newton, factored step loop: after the first run on a given Result, a repeated
// transient sweep — and in particular its per-step loop — allocates zero
// bytes.
func TestTransientStepAllocFree(t *testing.T) {
	t.Run("linear_fast_path", func(t *testing.T) {
		sess, err := NewSession(Compile(rcLadderCircuit(t)), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		assertTransientAllocFree(t, sess, 1e-9)
	})
	t.Run("newton_path", func(t *testing.T) {
		tc := tech.Tech130()
		inv := cell.MustNew(tc, "INV", 1)
		ckt := circuit.New()
		ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
		ckt.AddV("v_A", "in_A", "0", wave.Triangle(0, 0.8, 100e-12, 300e-12))
		if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cl", "out", "0", 30e-15)
		sess, err := NewSession(Compile(ckt), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(true) // predictor buffers must be reused, not re-made
		assertTransientAllocFree(t, sess, 600e-12)
	})
	t.Run("factored_path", func(t *testing.T) {
		prog := Compile(goldenShapedCircuit(t, tech.Tech130().WithNonlinearCaps(), "NAND2", 8))
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(true)
		assertTransientAllocFree(t, sess, 400e-12)
		if st := sess.Stats(); st.LowRankRuns == 0 {
			t.Fatal("golden-shaped bench did not take the factored path")
		}
	})
}

func assertTransientAllocFree(t *testing.T, sess *Session, tstop float64) {
	t.Helper()
	ctx := context.Background()
	res := &Result{}
	if err := sess.RunTransient(ctx, res, tstop, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := sess.RunTransient(ctx, res, tstop, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunTransient allocated %.1f times per run, want 0", allocs)
	}
}

package sim

import (
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// TestRunDCIntoMatchesRunDC asserts that RunDC into one reused result, the
// allocation-free sweep path, fills exactly the vector a fresh result
// gets, point by sweep point.
func TestRunDCIntoMatchesRunDC(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "NAND2", 1)
	st, err := cl.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (*Session, SourceHandle, SourceHandle) {
		ckt := buildForceBench(t, cl, st, "B", 0, 0)
		prog := Compile(ckt)
		sess, err := NewSession(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sess, prog.MustSource("v_B"), prog.MustSource("vforce")
	}
	sRef, hNoisyRef, hForceRef := mk()
	sInto, hNoisyInto, hForceInto := mk()
	var dc DCResult
	for _, vin := range []float64{0, 0.4, 0.9, 1.2} {
		for _, vout := range []float64{0, 0.6, 1.2} {
			sRef.SetSourceDC(hNoisyRef, vin)
			sRef.SetSourceDC(hForceRef, vout)
			want, err := dcOf(sRef)
			if err != nil {
				t.Fatal(err)
			}
			sInto.SetSourceDC(hNoisyInto, vin)
			sInto.SetSourceDC(hForceInto, vout)
			if err := sInto.RunDC(&dc); err != nil {
				t.Fatal(err)
			}
			if len(dc.X) != len(want.X) {
				t.Fatalf("unknown count mismatch: %d vs %d", len(dc.X), len(want.X))
			}
			for i := range dc.X {
				if dc.X[i] != want.X[i] {
					t.Fatalf("vin=%g vout=%g: X[%d] = %v (reused) vs %v (fresh)", vin, vout, i, dc.X[i], want.X[i])
				}
			}
			if got, want := dc.SourceCurrent(hForceInto), want.BranchI("vforce"); got != want {
				t.Fatalf("SourceCurrent = %v, BranchI = %v", got, want)
			}
		}
	}
}

// TestRunDCIntoAllocFree asserts the full per-grid-point sweep loop —
// source mutation, guess seeding, solve, result extraction — allocates
// zero bytes once the session and result are warm. This is the contract
// that keeps fine characterisation grids out of the allocator entirely.
func TestRunDCIntoAllocFree(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "NAND2", 1)
	st, err := cl.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	ckt := buildForceBench(t, cl, st, "B", 0.5, 0.8)
	prog := Compile(ckt)
	for _, warm := range []bool{false, true} {
		sess, err := NewSession(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(warm)
		hNoisy := prog.MustSource("v_B")
		hForce := prog.MustSource("vforce")
		var dc DCResult
		var sink float64
		// Warm up: first RunDC sizes the result, first SetSourceDC and
		// SetGuess create their session-owned entries.
		sess.SetSourceDC(hNoisy, 0.5)
		sess.SetSourceDC(hForce, 0.8)
		sess.SetGuess("dut.n1", 0.8)
		if err := sess.RunDC(&dc); err != nil {
			t.Fatal(err)
		}
		vout := 0.7
		allocs := testing.AllocsPerRun(50, func() {
			vout += 0.001 // move the sweep so every run truly solves
			sess.SetSourceDC(hNoisy, 0.5)
			sess.SetSourceDC(hForce, vout)
			sess.SetGuess("dut.n1", vout)
			if err := sess.RunDC(&dc); err != nil {
				t.Fatal(err)
			}
			sink += dc.SourceCurrent(hForce)
		})
		if allocs != 0 {
			t.Fatalf("warm=%v: sweep point allocates %.1f objects, want 0", warm, allocs)
		}
		_ = sink
	}
}

// TestWarmStartDCMatchesColdWithinTolerance sweeps the same DC grid cold
// and warm-started; converged solutions must agree to solver tolerance
// (they are the same root, approached from different seeds).
func TestWarmStartDCMatchesColdWithinTolerance(t *testing.T) {
	for _, cl := range equivCells(t) {
		noisy := cl.Inputs()[len(cl.Inputs())-1]
		st, err := cl.SensitizedState(noisy, true)
		if err != nil {
			t.Fatal(err)
		}
		vdd := cl.Tech.VDD
		mk := func(warm bool) (*Session, SourceHandle, SourceHandle) {
			ckt := buildForceBench(t, cl, st, noisy, 0, 0)
			prog := Compile(ckt)
			sess, err := NewSession(prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			sess.Seed(warm)
			return sess, prog.MustSource("v_" + noisy), prog.MustSource("vforce")
		}
		cold, hNC, hFC := mk(false)
		warm, hNW, hFW := mk(true)
		var dcC, dcW DCResult
		for vin := -0.2 * vdd; vin <= 1.2*vdd+1e-12; vin += 0.1 * vdd {
			for vout := -0.2 * vdd; vout <= 1.2*vdd+1e-12; vout += 0.1 * vdd {
				cold.SetSourceDC(hNC, vin)
				cold.SetSourceDC(hFC, vout)
				if err := cold.RunDC(&dcC); err != nil {
					t.Fatal(err)
				}
				warm.SetSourceDC(hNW, vin)
				warm.SetSourceDC(hFW, vout)
				if err := warm.RunDC(&dcW); err != nil {
					t.Fatal(err)
				}
				for i := range dcC.X {
					if d := math.Abs(dcC.X[i] - dcW.X[i]); d > 1e-6 {
						t.Fatalf("%s vin=%.2f vout=%.2f: X[%d] cold %v warm %v (|Δ| %.3g)",
							cl.Name(), vin, vout, i, dcC.X[i], dcW.X[i], d)
					}
				}
			}
		}
		ws := warm.Stats()
		if ws.WarmStarts == 0 {
			t.Fatalf("%s: warm session never warm-started (stats %+v)", cl.Name(), ws)
		}
		if cs := cold.Stats(); cs.WarmStarts != 0 {
			t.Fatalf("%s: cold session warm-started %d times", cl.Name(), cs.WarmStarts)
		}
	}
}

// TestWarmStartStatsAndReset exercises the warm-start bookkeeping: the
// first solve is always cold, and turning the mode off discards the stored
// seed, so the next solve is cold again.
func TestWarmStartStatsAndReset(t *testing.T) {
	c := circuit.New()
	c.AddV("vs", "in", "0", wave.Constant(1))
	c.AddR("r", "in", "out", 1000)
	c.AddR("r2", "out", "0", 1000)
	prog := Compile(c)
	sess, err := NewSession(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Seed(true)
	run := func() {
		if _, err := dcOf(sess); err != nil {
			t.Fatal(err)
		}
	}
	run() // cold: no seed yet
	if s := sess.Stats(); s.WarmStarts != 0 || s.DC != 1 {
		t.Fatalf("after first solve: %+v", s)
	}
	run() // warm
	if s := sess.Stats(); s.WarmStarts != 1 {
		t.Fatalf("after second solve: %+v", s)
	}
	sess.Seed(false)
	sess.Seed(true) // toggling off discards the seed
	run()           // cold
	if s := sess.Stats(); s.WarmStarts != 1 || s.DC != 3 {
		t.Fatalf("after reset: %+v", s)
	}
	run() // warm again
	if s := sess.Stats(); s.WarmStarts != 2 || s.WarmFallbacks != 0 {
		t.Fatalf("final stats: %+v", s)
	}
}

package charlib

import (
	"context"
	"fmt"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// charCells enumerates the warm-start property-test matrix: INV and NAND2
// on both technology cards, mirroring the golden fixture configurations.
func charCells(t *testing.T) []*cell.Cell {
	t.Helper()
	var out []*cell.Cell
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			out = append(out, cell.MustNew(tc, kind, 1))
		}
	}
	return out
}

// TestWarmStartLoadCurveMatchesCold is the warm-start correctness property:
// for every cell/tech configuration, the continuation-seeded sweep must
// land on the same converged currents as the cold sweep — same roots,
// different Newton seeds — within solver tolerance.
func TestWarmStartLoadCurveMatchesCold(t *testing.T) {
	for _, cl := range charCells(t) {
		cl := cl
		t.Run(fmt.Sprintf("%s_vdd%.1f", cl.Name(), cl.Tech.VDD), func(t *testing.T) {
			noisy := cl.Inputs()[len(cl.Inputs())-1]
			st, err := cl.SensitizedState(noisy, true)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cold, err := CharacterizeLoadCurve(ctx, cl, st, noisy, LoadCurveOptions{NVin: 21, NVout: 21})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := CharacterizeLoadCurve(ctx, cl, st, noisy, LoadCurveOptions{NVin: 21, NVout: 21, Policy: sim.Policy{WarmStart: true}})
			if err != nil {
				t.Fatal(err)
			}
			scale := 0.0
			for _, i := range cold.I {
				scale = math.Max(scale, math.Abs(i))
			}
			tol := 1e-6*scale + 1e-12
			for k := range cold.I {
				if d := math.Abs(cold.I[k] - warm.I[k]); d > tol {
					t.Fatalf("I[%d]: cold %v warm %v (|Δ| %.3g > tol %.3g)", k, cold.I[k], warm.I[k], d, tol)
				}
			}
		})
	}
}

// sweepIterations characterises a load curve and returns the total Newton
// iterations the sweep spent, via the process-wide engine counters.
func sweepIterations(t *testing.T, cl *cell.Cell, st cell.State, pin string, opts LoadCurveOptions) int64 {
	t.Helper()
	before := sim.Snapshot()
	if _, err := CharacterizeLoadCurve(context.Background(), cl, st, pin, opts); err != nil {
		t.Fatal(err)
	}
	return sim.Snapshot().Sub(before).NewtonIters
}

// TestWarmStartCutsNewtonIterations is the headline acceptance criterion of
// the warm-start sweep engine: on the production 61×61 INV load-curve grid,
// continuation must cut total Newton iterations by at least 30% versus the
// cold sweep. (Measured numbers are recorded in EXPERIMENTS.md.)
func TestWarmStartCutsNewtonIterations(t *testing.T) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadCurveOptions{NVin: 61, NVout: 61}
	cold := sweepIterations(t, inv, st, "A", opts)
	opts.WarmStart = true
	warm := sweepIterations(t, inv, st, "A", opts)
	t.Logf("61x61 INV sweep: %d Newton iterations cold, %d warm (%.1f%% reduction)",
		cold, warm, 100*(1-float64(warm)/float64(cold)))
	if warm > cold*7/10 {
		t.Fatalf("warm start cut iterations by only %.1f%% (cold %d, warm %d), want >= 30%%",
			100*(1-float64(warm)/float64(cold)), cold, warm)
	}
}

// TestWarmStartIterationsDecreaseOnFineGrid asserts the continuation
// property on a fine 121×121 grid for both cell kinds: the finer the grid,
// the better the previous point predicts the next, so warm-start iteration
// counts must be strictly below cold ones.
func TestWarmStartIterationsDecreaseOnFineGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fine-grid sweep is slow")
	}
	tc := tech.Tech130()
	for _, kind := range []string{"INV", "NAND2"} {
		cl := cell.MustNew(tc, kind, 1)
		noisy := cl.Inputs()[len(cl.Inputs())-1]
		st, err := cl.SensitizedState(noisy, true)
		if err != nil {
			t.Fatal(err)
		}
		opts := LoadCurveOptions{NVin: 121, NVout: 121}
		cold := sweepIterations(t, cl, st, noisy, opts)
		opts.WarmStart = true
		warm := sweepIterations(t, cl, st, noisy, opts)
		t.Logf("121x121 %s sweep: %d Newton iterations cold, %d warm (%.1f%% reduction)",
			kind, cold, warm, 100*(1-float64(warm)/float64(cold)))
		if warm >= cold {
			t.Fatalf("%s: warm iterations %d not strictly below cold %d on the fine grid", kind, warm, cold)
		}
	}
}

// TestLoadCurveSweepAllocsIndependentOfGrid pins down the allocation-free
// sweep loop end to end: growing the grid from 21×21 (441 points) to 61×61
// (3721 points) must not grow the sweep's allocation count beyond a small
// constant — every per-point allocation was eliminated by the
// RunDCInto/SetSourceDC path (the per-point loop itself is asserted to be
// exactly zero-alloc by sim's TestRunDCIntoAllocFree).
func TestLoadCurveSweepAllocsIndependentOfGrid(t *testing.T) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := CharacterizeLoadCurve(context.Background(), inv, st, "A",
				LoadCurveOptions{NVin: n, NVout: n}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(21), measure(61)
	t.Logf("sweep allocations: %.0f at 21x21, %.0f at 61x61", small, large)
	// 3280 extra grid points; allow a handful of allocs of slack for the
	// differently sized table slice and map growth inside compilation.
	if large > small+50 {
		t.Fatalf("allocations scale with the grid: %.0f at 21x21 vs %.0f at 61x61", small, large)
	}
}

// TestWarmStartPropTableMatchesCold asserts the transient characterisation
// path under warm start: only the DC operating-point seed changes, so
// propagated peaks and areas must agree with the cold flow within solver
// tolerance.
func TestWarmStartPropTableMatchesCold(t *testing.T) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := PropOptions{
		Heights: []float64{0.4, 1.0},
		Widths:  []float64{200e-12, 500e-12},
		Loads:   []float64{25e-15},
		Dt:      2e-12,
	}
	cold, err := CharacterizePropagation(ctx, inv, st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.WarmStart = true
	warm, err := CharacterizePropagation(ctx, inv, st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	for hi := range cold.Peak {
		for wi := range cold.Peak[hi] {
			for li := range cold.Peak[hi][wi] {
				dp := math.Abs(cold.Peak[hi][wi][li] - warm.Peak[hi][wi][li])
				da := math.Abs(cold.Area[hi][wi][li] - warm.Area[hi][wi][li])
				if dp > 1e-6 || da > 1e-15 {
					t.Fatalf("[%d][%d][%d]: peak Δ %.3g, area Δ %.3g", hi, wi, li, dp, da)
				}
			}
		}
	}
}

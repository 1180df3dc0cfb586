package nrc

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestWarmStartCurveMatchesCold asserts the seeding correctness property
// for NRC characterisation on INV and NAND2 across both technology cards:
// Characterize's warm-started, predictor-seeded bisection probes differ
// from the cold reference's only at solver tolerance, so each curve height
// may move by at most one bisection bracket and failability (finite versus
// +Inf) can never flip.
func TestWarmStartCurveMatchesCold(t *testing.T) {
	opts := Options{
		Widths: []float64{200e-12, 800e-12},
		Tol:    0.02,
		Dt:     2e-12,
	}
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			cl := cell.MustNew(tc, kind, 1)
			pin := cl.Inputs()[len(cl.Inputs())-1]
			st, err := cl.SensitizedState(pin, true)
			if err != nil {
				t.Fatal(err)
			}
			cold, _, err := characterize(context.Background(), cl, st, pin, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := Characterize(context.Background(), cl, st, pin, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cold.Heights {
				c, w := cold.Heights[i], warm.Heights[i]
				if math.IsInf(c, 1) != math.IsInf(w, 1) {
					t.Fatalf("%s/%s width %d: failability flipped (cold %v, warm %v)", tc.Name, kind, i, c, w)
				}
				if !math.IsInf(c, 1) && math.Abs(c-w) > 1.5*opts.Tol {
					t.Fatalf("%s/%s width %d: height cold %.4f warm %.4f (> 1.5x bisection tol)", tc.Name, kind, i, c, w)
				}
			}
		}
	}
}

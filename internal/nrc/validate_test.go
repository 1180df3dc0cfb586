package nrc

import (
	"context"
	"errors"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// TestCharacterizeRejectsBadOptions holds Characterize to its entry
// check: options the bisection cannot use are an *sim.OptionsError naming
// the field, never a panic (a non-positive width reaches wave.Triangle) or
// a silent answer (a NaN FailFrac puts the threshold out of every probe's
// reach, so the receiver reads unfailable; a NaN Tol ends each bisection
// at once).
func TestCharacterizeRejectsBadOptions(t *testing.T) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	for _, tc := range []struct {
		name, field string
		opts        Options
	}{
		{"zero width", "NRCOptions.Widths[1]", Options{Widths: []float64{100e-12, 0}}},
		{"negative width", "NRCOptions.Widths[0]", Options{Widths: []float64{-100e-12}}},
		{"NaN FailFrac", "NRCOptions.FailFrac", Options{Widths: []float64{100e-12}, FailFrac: math.NaN()}},
		{"NaN Tol", "NRCOptions.Tol", Options{Widths: []float64{100e-12}, Tol: math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, err := Characterize(context.Background(), inv, cell.State{"A": true}, "A", tc.opts)
			var oe *sim.OptionsError
			if !errors.Is(err, sim.ErrInvalidOptions) || !errors.As(err, &oe) || oe.Field != tc.field {
				t.Fatalf("Characterize = (%v, %v), want an *sim.OptionsError on %s", c, err, tc.field)
			}
		})
	}
}

package charlib

import (
	"context"
	"errors"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// TestCharacterizePropagationRejectsBadGrid holds the propagation table
// to its entry check: a grid entry the probes cannot simulate is an
// *sim.OptionsError naming it, never a panic — a zero width reaches
// wave.Triangle, a negative or infinite load sim.Session.SetLoad — that
// would kill a characterisation worker and the process around it.
func TestCharacterizePropagationRejectsBadGrid(t *testing.T) {
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	grid := func(w, l float64) PropOptions {
		return PropOptions{Heights: []float64{0.6}, Widths: []float64{100e-12, w}, Loads: []float64{l}, Dt: 2e-12}
	}
	for _, tc := range []struct {
		name, field string
		opts        PropOptions
	}{
		{"zero width", "PropOptions.Widths[1]", grid(0, 20e-15)},
		{"negative load", "PropOptions.Loads[0]", grid(200e-12, -20e-15)},
		{"infinite load", "PropOptions.Loads[0]", grid(200e-12, math.Inf(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt, _, err := characterizePropagation(context.Background(), inv, cell.State{"A": false}, "A", tc.opts, propSeeded)
			var oe *sim.OptionsError
			if !errors.Is(err, sim.ErrInvalidOptions) || !errors.As(err, &oe) || oe.Field != tc.field {
				t.Fatalf("characterizePropagation = (%v, %v), want an *sim.OptionsError on %s", pt, err, tc.field)
			}
		})
	}
}

// TestPropTableLookupSinglePointAxis looks up tables with one point on
// one axis at a time: that axis is constant, the other two interpolate,
// and nothing reads past the single point.
func TestPropTableLookupSinglePointAxis(t *testing.T) {
	// f is linear in every axis, so trilinear interpolation is exact.
	f := func(h, w, l float64) float64 { return 1 + 2*h + 3*w*1e9 + 4*l*1e12 }
	build := func(hs, ws, ls []float64) *PropTable {
		pt := &PropTable{Heights: hs, Widths: ws, Loads: ls}
		pt.Peak = make([][][]float64, len(hs))
		pt.Area = make([][][]float64, len(hs))
		for i, h := range hs {
			pt.Peak[i] = make([][]float64, len(ws))
			pt.Area[i] = make([][]float64, len(ws))
			for j, w := range ws {
				for _, l := range ls {
					pt.Peak[i][j] = append(pt.Peak[i][j], f(h, w, l))
					pt.Area[i][j] = append(pt.Area[i][j], -f(h, w, l))
				}
			}
		}
		return pt
	}
	two := func(a, b float64) []float64 { return []float64{a, b} }
	h, w, l := 0.5, 300e-12, 0.02e-12
	for _, tc := range []struct {
		name    string
		pt      *PropTable
		want    float64
		h, w, l float64
	}{
		{"heights", build([]float64{0.4}, two(100e-12, 500e-12), two(0.01e-12, 0.03e-12)), f(0.4, w, l), h, w, l},
		{"widths", build(two(0.2, 0.8), []float64{200e-12}, two(0.01e-12, 0.03e-12)), f(h, 200e-12, l), h, w, l},
		{"loads", build(two(0.2, 0.8), two(100e-12, 500e-12), []float64{0.01e-12}), f(h, w, 0.01e-12), h, w, l},
		{"all", build([]float64{0.4}, []float64{200e-12}, []float64{0.01e-12}), f(0.4, 200e-12, 0.01e-12), h, w, l},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peak, area := tc.pt.Lookup(tc.h, tc.w, tc.l)
			if math.Abs(peak-tc.want) > 1e-12 || math.Abs(area+tc.want) > 1e-12 {
				t.Errorf("Lookup = (%g, %g), want (%g, %g)", peak, area, tc.want, -tc.want)
			}
		})
	}
}

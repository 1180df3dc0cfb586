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

// farmPropOptions is the corner farm's propagation grid (benchmark/farm.go)
// at step dt.
func farmPropOptions(vdd, dt float64) PropOptions {
	return PropOptions{
		Heights: []float64{0.2 * vdd, 0.47 * vdd, 0.73 * vdd, 1.0 * vdd},
		Widths:  []float64{60e-12, 240e-12, 900e-12},
		Loads:   []float64{10e-15, 120e-15},
		Dt:      dt,
	}
}

// maxRelErr returns the largest relative error of got's peaks and of its
// areas against want's, entry by entry.
func maxRelErr(got, want *PropTable) (peak, area float64) {
	for hi := range want.Peak {
		for wi := range want.Peak[hi] {
			for li, p := range want.Peak[hi][wi] {
				peak = math.Max(peak, math.Abs(got.Peak[hi][wi][li]-p)/p)
				a := want.Area[hi][wi][li]
				area = math.Max(area, math.Abs(got.Area[hi][wi][li]-a)/a)
			}
		}
	}
	return peak, area
}

// TestAdaptivePropTableAccuracy is the accuracy oracle of the adaptive
// time axis: on the farm's grid, for INV X1/A and NAND2 X1/B on both
// technology cards, with constant and with NLMOS gate caps, at Dt = 1 ps
// and 2 ps, the production table's largest relative peak error and its
// largest relative area error against a fixed-grid table at Dt/4 are each
// no larger than the fixed-grid table's at Dt.
func TestAdaptivePropTableAccuracy(t *testing.T) {
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, nl := range []bool{false, true} {
			card := tc
			if nl {
				card = tc.WithNonlinearCaps()
			}
			for _, job := range []struct{ kind, pin string }{{"INV", "A"}, {"NAND2", "B"}} {
				for _, dt := range []float64{1e-12, 2e-12} {
					name := fmt.Sprintf("%s/nl=%v/%s_%s/dt=%gps", tc.Name, nl, job.kind, job.pin, dt*1e12)
					card, job, dt := card, job, dt
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cl := cell.MustNew(card, job.kind, 1)
						st, err := cl.SensitizedState(job.pin, true)
						if err != nil {
							t.Fatal(err)
						}
						ctx := context.Background()
						run := func(dt float64, mode propMode) (*PropTable, sim.Counters) {
							pt, work, err := characterizePropagation(ctx, cl, st, job.pin, farmPropOptions(card.VDD, dt), mode)
							if err != nil {
								t.Fatal(err)
							}
							return pt, work
						}
						ref, _ := run(dt/4, propFixed)
						fixed, fw := run(dt, propFixed)
						adapt, aw := run(dt, propSeeded)
						fp, fa := maxRelErr(fixed, ref)
						ap, aa := maxRelErr(adapt, ref)
						t.Logf("%s: fixed grid: peak %.3g area %.3g over %d steps, %d Newton iterations; adaptive: peak %.3g area %.3g over %d steps, %d Newton iterations",
							name, fp, fa, fw.TransientSteps, fw.NewtonIters, ap, aa, aw.TransientSteps, aw.NewtonIters)
						if ap > fp || aa > fa {
							t.Errorf("adaptive table errs more than the fixed grid: peak %.3g vs %.3g, area %.3g vs %.3g", ap, fp, aa, fa)
						}
					})
				}
			}
		}
	}
}

package nrc

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// TestStoppedProbesMatchFullRuns holds Characterize, whose probes stop at
// their first failing sample, to the same bisection with every probe run
// to the end of its window: on INV and NAND2 of both cards the heights
// must be bit-identical, from the same number of probes, in strictly fewer
// transient steps.
func TestStoppedProbesMatchFullRuns(t *testing.T) {
	ctx := context.Background()
	opts := Options{Widths: []float64{100e-12, 400e-12, 1600e-12}, Dt: 2e-12}
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			cl := cell.MustNew(tc, kind, 1)
			pin := cl.Inputs()[len(cl.Inputs())-1]
			st, err := cl.SensitizedState(pin, true)
			if err != nil {
				t.Fatal(err)
			}
			before := sim.Snapshot()
			got, _, err := Characterize(ctx, cl, st, pin, opts)
			if err != nil {
				t.Fatal(err)
			}
			stopped := sim.Snapshot().Sub(before)

			o := opts.normalize()
			rig, err := newGlitchRig(cl, st, pin, o, true)
			if err != nil {
				t.Fatal(err)
			}
			rig.stop = nil
			for i, w := range o.Widths {
				h, err := bisectFailingHeight(ctx, rig, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Heights[i]) != math.Float64bits(h) {
					t.Errorf("%s %s width %.0f ps: height %v stopped, %v full runs", tc.Name, cl.Name(), w*1e12, got.Heights[i], h)
				}
			}
			full := rig.sess.Stats()
			if stopped.Transient != full.Transient || stopped.TransientSteps >= full.TransientSteps {
				t.Errorf("%s %s: stopped probes %d runs of %d steps, full %d runs of %d steps; want equal runs, fewer steps",
					tc.Name, cl.Name(), stopped.Transient, stopped.TransientSteps, full.Transient, full.TransientSteps)
			}
			t.Logf("%s %s: %d probes, %d → %d transient steps", tc.Name, cl.Name(), full.Transient, full.TransientSteps, stopped.TransientSteps)
		}
	}
}

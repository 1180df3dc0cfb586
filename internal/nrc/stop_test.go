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
// their first failing sample or where the certificate proves every later
// sample passes (DESIGN.md §16, §31), to the same bisection with the
// probes stopped at a failing sample alone and with every probe run to
// the end of its window: on INV and NAND2 of both cards, on both input
// rails, the heights must be bit-identical, from the same number of
// probes, and each stop rule must take fewer transient steps than the one
// before it — strictly, but for the certificate on NAND2 with its output
// low, whose stack node is too stiff for it at a 2 ps step
// ((h/2)·G/c = 1.19 at the operating point on cmos130), so it refuses.
func TestStoppedProbesMatchFullRuns(t *testing.T) {
	ctx := context.Background()
	opts := Options{Widths: []float64{100e-12, 400e-12, 1600e-12}, Dt: 2e-12}
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			cl := cell.MustNew(tc, kind, 1)
			pin := cl.Inputs()[len(cl.Inputs())-1]
			for _, outHigh := range []bool{true, false} {
				st, err := cl.SensitizedState(pin, outHigh)
				if err != nil {
					t.Fatal(err)
				}
				before := sim.Snapshot()
				got, _, err := Characterize(ctx, cl, st, pin, opts)
				if err != nil {
					t.Fatal(err)
				}
				stopped := sim.Snapshot().Sub(before)
				name := tc.Name + " " + cl.Name() + " " + st.String()

				o := opts.normalize()
				var steps []int64
				for _, failStop := range []bool{true, false} {
					rig, err := newGlitchRig(cl, st, pin, o, true)
					if err != nil {
						t.Fatal(err)
					}
					rig.failStop, rig.passStop = failStop, false
					for i, w := range o.Widths {
						h, err := bisectFailingHeight(ctx, rig, w, o)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got.Heights[i]) != math.Float64bits(h) {
							t.Errorf("%s width %.0f ps: height %v stopped, %v with fail-stop %v alone", name, w*1e12, got.Heights[i], h, failStop)
						}
					}
					ref := rig.sess.Stats()
					if stopped.Transient != ref.Transient {
						t.Errorf("%s: %d probes, %d with fail-stop %v alone", name, stopped.Transient, ref.Transient, failStop)
					}
					steps = append(steps, ref.TransientSteps)
				}
				stiff := kind == "NAND2" && !outHigh
				if !(stopped.TransientSteps < steps[0] || stiff && stopped.TransientSteps == steps[0]) || !(steps[0] < steps[1]) {
					t.Errorf("%s: %d transient steps, %d with fail-stop alone, %d with full runs; want each fewer than the next",
						name, stopped.TransientSteps, steps[0], steps[1])
				}
				t.Logf("%s: %d probes, %d → %d → %d transient steps (full, fail-stop, fail- and pass-stop)", name, stopped.Transient, steps[1], steps[0], stopped.TransientSteps)
			}
		}
	}
}

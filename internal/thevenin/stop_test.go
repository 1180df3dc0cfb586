package thevenin

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// generatedAggressors are the (drive, input slew) pairs of the INV
// aggressors sna.GenerateDesign emits (the first six), each switching A up
// from A = 0 with its ramp at the default 200 ps start, plus one slew the
// benchmark's seeded jitter of that design reaches.
var generatedAggressors = []struct {
	drive int
	slew  float64
}{
	{1, 60e-12}, {2, 60e-12}, {1, 100e-12}, {2, 80e-12}, {4, 80e-12}, {4, 100e-12},
	{2, 90e-12},
}

// TestStoppedFitMatchesFullWindow holds Fit, whose golden run stops at the
// first sample at or past the 80 % crossing, to a fit from the full window:
// every Driver field must be bit-identical, for every generated aggressor
// configuration at three loads on both cards.
func TestStoppedFitMatchesFullWindow(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, a := range generatedAggressors {
			inv := cell.MustNew(tc, "INV", a.drive)
			opts := FitOptions{InputSlew: a.slew, InputT0: 200e-12}
			for _, load := range []float64{10e-15, 40e-15, 120e-15} {
				got, _, err := Fit(ctx, inv, cell.State{"A": false}, "A", load, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := fit(ctx, inv, cell.State{"A": false}, "A", load, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"V0", got.V0, want.V0}, {"V1", got.V1, want.V1}, {"T0", got.T0, want.T0},
					{"Tr", got.Tr, want.Tr}, {"RTh", got.RTh, want.RTh},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Errorf("%s %s slew %.0f ps load %.0f fF: %s = %v stopped, %v full window",
							tc.Name, inv.Name(), a.slew*1e12, load*1e15, f.name, f.got, f.want)
					}
				}
			}
		}
	}
}

// TestFitStopsAtEightyPercent counts the golden run's steps: a fit must
// simulate exactly up to the first sample whose progress reaches 80 %,
// where the full window runs to InputT0 + InputSlew + 2 ns.
func TestFitStopsAtEightyPercent(t *testing.T) {
	ctx := context.Background()
	tc := tech.Tech130()
	for _, b := range []struct {
		kind, pin string
		from      cell.State
	}{
		{"INV", "A", cell.State{"A": false}},
		{"NAND2", "B", cell.State{"A": true, "B": false}},
	} {
		cl := cell.MustNew(tc, b.kind, 1)
		opts := FitOptions{InputT0: 200e-12}.normalize()
		const load = 40e-15
		full, _, err := simulateSwitch(ctx, cl, b.from, b.pin, load, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		to := b.from.Clone()
		to[b.pin] = !to[b.pin]
		v0, v1 := cl.PinVoltage(cl.Logic(b.from)), cl.PinVoltage(cl.Logic(to))
		first := -1
		for i, v := range full.V {
			if (v-v0)/(v1-v0) >= crossHi {
				first = i
				break
			}
		}
		if first < 0 {
			t.Fatalf("%s: full window never reaches 80%%", cl.Name())
		}
		before := sim.Snapshot()
		if _, _, err := Fit(ctx, cl, b.from, b.pin, load, opts); err != nil {
			t.Fatal(err)
		}
		d := sim.Snapshot().Sub(before)
		if d.Transient != 1 || d.TransientSteps != int64(first) {
			t.Errorf("%s: fit ran %d transients of %d steps, want 1 of %d (full window %d)",
				cl.Name(), d.Transient, d.TransientSteps, first, len(full.V)-1)
		}
		t.Logf("%s: golden run stops after %d of %d steps", cl.Name(), d.TransientSteps, len(full.V)-1)
	}
}

// The bisections of rampCrossing and fitRampDuration break once a pass
// leaves (lo, hi) unchanged. rampCrossingAllPasses and
// fitRampDurationAllPasses are the loops without that break, which the
// broken-off ones must match bit for bit.
func rampCrossingAllPasses(tr, tau, frac float64) float64 {
	lo, hi := 0.0, tr+40*tau+1e-12
	for rampResponse(hi, tr, tau) < frac {
		hi *= 2
		if hi > 1 {
			return math.Inf(1)
		}
	}
	for k := 0; k < 80; k++ {
		midT := 0.5 * (lo + hi)
		if rampResponse(midT, tr, tau) < frac {
			lo = midT
		} else {
			hi = midT
		}
	}
	return 0.5 * (lo + hi)
}

func fitRampDurationAllPasses(tau, spread float64) float64 {
	spreadOf := func(tr float64) float64 {
		return rampCrossingAllPasses(tr, tau, crossHi) - rampCrossingAllPasses(tr, tau, crossLo)
	}
	lo := 1e-13
	hi := 10 * spread
	for spreadOf(hi) < spread && hi < 1e-6 {
		hi *= 2
	}
	if spreadOf(lo) > spread {
		return lo
	}
	for k := 0; k < 70; k++ {
		mid := 0.5 * (lo + hi)
		if spreadOf(mid) < spread {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

func TestBisectionsStopAtFixedPointBitIdentical(t *testing.T) {
	for _, tau := range []float64{3e-12, 17e-12, 55e-12, 240e-12} {
		for _, tr := range []float64{1e-13, 8e-12, 60e-12, 333e-12} {
			for _, frac := range []float64{0.2, crossLo, crossHi, 0.95} {
				got, want := rampCrossing(tr, tau, frac), rampCrossingAllPasses(tr, tau, frac)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("rampCrossing(%g, %g, %g) = %v, all 80 passes give %v", tr, tau, frac, got, want)
				}
			}
		}
		for _, spread := range []float64{1e-12, 20e-12, 90e-12, 400e-12} {
			got, want := fitRampDuration(tau, spread), fitRampDurationAllPasses(tau, spread)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("fitRampDuration(%g, %g) = %v, all 70 passes give %v", tau, spread, got, want)
			}
		}
	}
}

// BenchmarkTheveninFit times one aggressor fit, the golden switch run
// stopped at its 80 % crossing included, for INV X1/A and NAND2 X1/B on
// cmos130. transient-steps/op is the golden run's length.
func BenchmarkTheveninFit(b *testing.B) {
	tc := tech.Tech130()
	for _, bc := range []struct {
		name, kind, pin string
		from            cell.State
	}{
		{"INV_X1_A", "INV", "A", cell.State{"A": false}},
		{"NAND2_X1_B", "NAND2", "B", cell.State{"A": true, "B": false}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cl := cell.MustNew(tc, bc.kind, 1)
			opts := FitOptions{InputT0: 200e-12}
			b.ReportAllocs()
			before := sim.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, _, err := Fit(context.Background(), cl, bc.from, bc.pin, 40e-15, opts); err != nil {
					b.Fatal(err)
				}
			}
			steps := sim.Snapshot().Sub(before).TransientSteps
			b.ReportMetric(float64(steps)/float64(b.N), "transient-steps/op")
		})
	}
}

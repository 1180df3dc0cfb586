package nrc

import (
	"context"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// BenchmarkNRCCharacterize times a two-width NRC with allocation tracking:
// every bisection probe reuses one compiled sim.Session, so the whole
// curve performs a couple of hundred allocations instead of rebuilding a
// circuit per transient (numbers in EXPERIMENTS.md).
func BenchmarkNRCCharacterize(b *testing.B) {
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	st := cell.State{"A": false}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(context.Background(), inv, st, "A",
			Options{Widths: []float64{100e-12, 300e-12}, Dt: 2e-12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNRCTransient is BenchmarkNRCCharacterize with the polynomial
// transient predictor on. Combined with the allocation-free transient
// sweeps (glitchRig reuses its result storage via RunTransientInto), the
// delta against the plain bench is the transient hot-path payoff on
// bisection workloads (EXPERIMENTS.md).
func BenchmarkNRCTransient(b *testing.B) {
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	st := cell.State{"A": false}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(context.Background(), inv, st, "A",
			Options{Widths: []float64{100e-12, 300e-12}, Dt: 2e-12, Policy: sim.Policy{Predictor: true}}); err != nil {
			b.Fatal(err)
		}
	}
}

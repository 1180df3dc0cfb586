package nrc

import (
	"context"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// BenchmarkNRCCharacterize times a two-width NRC with allocation tracking:
// every bisection probe reuses one compiled sim.Session and its result
// storage (RunTransient), so the whole curve performs a couple of
// hundred allocations instead of rebuilding a circuit per transient
// (numbers in EXPERIMENTS.md). transient-steps/op counts the probes' steps,
// which end at each failing probe's first failing sample.
func BenchmarkNRCCharacterize(b *testing.B) {
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	st := cell.State{"A": false}
	b.ReportAllocs()
	before := sim.Snapshot()
	for i := 0; i < b.N; i++ {
		if _, _, err := Characterize(context.Background(), inv, st, "A",
			Options{Widths: []float64{100e-12, 300e-12}, Dt: 2e-12}); err != nil {
			b.Fatal(err)
		}
	}
	steps := sim.Snapshot().Sub(before).TransientSteps
	b.ReportMetric(float64(steps)/float64(b.N), "transient-steps/op")
}

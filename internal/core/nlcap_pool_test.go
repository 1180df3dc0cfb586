package core

import (
	"context"
	"testing"

	"stanoise/internal/tech"
)

// TestRigPoolNLCapKeysDistinct pins the pooled-bench key separation on the
// nonlinear-cap axis: a cluster on a WithNonlinearCaps card and one on the
// base card share cell names, tech name and VDD, so only the card
// fingerprint keeps their compiled benches from aliasing in a shared pool.
func TestRigPoolNLCapKeysDistinct(t *testing.T) {
	cc := fastCluster(t, 1)
	nc := fastClusterOn(t, tech.Tech130().WithNonlinearCaps(), 1)

	if cc.topologyKey() == nc.topologyKey() {
		t.Fatal("constant-cap and nl-cap clusters alias the topology key")
	}
	if cc.driverClassKey() == nc.driverClassKey() {
		t.Fatal("constant-cap and nl-cap clusters alias the driver-class key")
	}
}

// TestRigPoolNLCapNoCrossServing drives pool-key separation end to end on
// every card axis that keeps the base card's name — nonlinear caps, the
// VDD-preserving fs and sf corners, and a Monte Carlo sample. With one
// shared pool, a nominal cluster and one on the axis card evaluating the
// same driver-alone bench must compile two rigs (two misses, no cross-axis
// hit) and produce measurably different waveforms: the axis bench really
// runs its own device stamps, it is not a mislabeled copy.
func TestRigPoolNLCapNoCrossServing(t *testing.T) {
	base := tech.Tech130()
	cards := map[string]*tech.Tech{
		"nlcap": base.WithNonlinearCaps(),
		"mc":    tech.SampleCorners(1, 1, tech.SampleSpec{})[0].Apply(base),
	}
	for _, name := range []string{"fs", "sf"} {
		c, err := tech.CornerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cards[name] = c.Apply(base)
	}
	for name, card := range cards {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			models := &Models{LumpedCL: 60e-15}
			opts := fastEvalOptions()

			pool := NewRigPool(RigPoolLimits{})
			cc := fastCluster(t, 1)
			ac := fastClusterOn(t, card, 1)
			cc.UseRigPool(pool)
			ac.UseRigPool(pool)

			wc, err := cc.DriverAloneResponse(ctx, models, opts)
			if err != nil {
				t.Fatal(err)
			}
			wa, err := ac.DriverAloneResponse(ctx, models, opts)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses := pool.Stats()
			if hits != 0 || misses != 2 {
				t.Fatalf("pool stats hits=%d misses=%d, want 0 hits and 2 misses (no cross-axis serving)", hits, misses)
			}
			if pool.Len() != 2 {
				t.Fatalf("pool holds %d rigs, want 2", pool.Len())
			}
			maxDiff := 0.0
			n := min(len(wc.V), len(wa.V))
			for i := 0; i < n; i++ {
				maxDiff = max(maxDiff, wc.V[i]-wa.V[i], wa.V[i]-wc.V[i])
			}
			if maxDiff < 1e-4 {
				t.Fatalf("%s bench indistinguishable from nominal (max |Δ| = %g V)", name, maxDiff)
			}
		})
	}
}

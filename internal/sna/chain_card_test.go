package sna

import (
	"context"
	"testing"

	"stanoise/internal/core"
	"stanoise/internal/tech"
)

// TestPropagateChainHonoursCornerAndNLCaps pins PropagateChain to the
// analysis card Analyze uses: a one-stage chain evaluates exactly the
// cluster Analyze reports on, so its stage-1 receiver peak must equal
// Analyze's PeakV at a non-nominal corner and under the nonlinear
// gate-charge model, not the nominal constant-cap value.
func TestPropagateChainHonoursCornerAndNLCaps(t *testing.T) {
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	d := SampleDesign()
	d.Clusters = d.Clusters[:1] // bus_bit7
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"ss", func(o *Options) { o.Corner = ss }},
		{"nlcaps", func(o *Options) { o.NonlinearCaps = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			opts := fastOpts(core.Macromodel)
			opts.Workers = 1
			tc.set(&opts)
			an := NewAnalyzer(d, opts)
			reps, err := an.Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			chain, err := an.PropagateChain(ctx, d.Clusters)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := chain[0].Peak, reps[0].PeakV; got != want {
				t.Errorf("chain stage-1 peak %.6f V, Analyze peak %.6f V", got, want)
			}
		})
	}
}

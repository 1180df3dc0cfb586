package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
)

// The alignment search's peak-only runs stop once their peak is decided
// (DESIGN.md §26) and change no number: on every cluster of the reference
// design, every AlignPeaks timing run and every probe of AlignWorstCase
// returns the peak and peak time of the same run taken to TStop, by
// Float64bits, and the search ends at the same offsets — while skipping
// at least 60 % of the full-horizon search's engine steps. The probes of
// TestMacromodelPeakMatchesEvaluation must stop early too, so that test
// holds stopped probes against full evaluations.
func TestAlignmentRunsStopBitIdentical(t *testing.T) {
	core.CheckProbesStopEarly(t)

	ctx := context.Background()
	d := sna.GenerateDesign("reference", 48)
	cache := charlib.NewCache()
	var stopped, full, runs int64
	for _, cs := range d.Clusters {
		cl, err := d.BuildCluster(cs)
		if err != nil {
			t.Fatal(err)
		}
		models, err := cl.BuildModels(ctx, core.ModelOptions{SkipProp: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, len(cl.Aggressors))
		for i := range cl.Aggressors {
			base[i] = cl.Aggressors[i].Offset
		}
		search := func(opts core.EvalOptions) (peaks []uint64, offsets []float64, d sim.Counters) {
			for i := range cl.Aggressors {
				cl.Aggressors[i].Offset = base[i]
			}
			opts = core.ObservePeaks(opts, func(peak, tPeak float64) {
				peaks = append(peaks, math.Float64bits(peak), math.Float64bits(tPeak))
			})
			before := sim.Snapshot()
			if err := cl.AlignWorstCase(ctx, models, opts); err != nil {
				t.Fatalf("%s: %v", cs.Name, err)
			}
			d = sim.Snapshot().Sub(before)
			for i := range cl.Aggressors {
				offsets = append(offsets, cl.Aggressors[i].Offset)
			}
			return peaks, offsets, d
		}
		opts := core.EvalOptions{Dt: 2e-12}
		gotPeaks, gotOffsets, got := search(opts)
		wantPeaks, wantOffsets, want := search(core.FullHorizon(opts))
		if !slices.Equal(gotPeaks, wantPeaks) {
			t.Errorf("%s: peaks and peak times of the search's runs differ from full-horizon runs", cs.Name)
		}
		for i := range gotOffsets {
			if math.Float64bits(gotOffsets[i]) != math.Float64bits(wantOffsets[i]) {
				t.Errorf("%s: aggressor %d ends at offset %v, full-horizon search at %v", cs.Name, i, gotOffsets[i], wantOffsets[i])
			}
		}
		if got.EngineRuns != want.EngineRuns {
			t.Errorf("%s: %d engine runs, full-horizon search %d", cs.Name, got.EngineRuns, want.EngineRuns)
		}
		stopped += got.EngineSteps
		full += want.EngineSteps
		runs += got.EngineRuns
	}
	skipped := 1 - float64(stopped)/float64(full)
	t.Logf("%d runs took %d of %d full-horizon engine steps (%.1f %% skipped)", runs, stopped, full, 100*skipped)
	if skipped < 0.6 {
		t.Errorf("the search skipped %.1f %% of its engine steps, want at least 60 %%", 100*skipped)
	}
}

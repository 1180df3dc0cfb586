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
// (DESIGN.md §26) and its probes resume from the best run's trace (§29),
// and neither changes a number: on every cluster of the reference design,
// every AlignPeaks timing run and every probe of AlignWorstCase returns the
// peak and peak time of the same run taken to TStop from step 1, by
// Float64bits, and the search ends at the same offsets — while skipping
// at least 80 % of the full-horizon search's engine steps. The probes of
// TestMacromodelPeakMatchesEvaluation must stop early too, so that test
// holds stopped probes against full evaluations.
func TestAlignmentRunsStopBitIdentical(t *testing.T) {
	core.CheckProbesStopEarly(t)
	if skipped := checkSearchBitIdentical(t, core.EvalOptions{Dt: 2e-12}); skipped < 0.8 {
		t.Errorf("the search skipped %.1f %% of its engine steps, want at least 80 %%", 100*skipped)
	}
}

// With the victim's Miller capacitor the certificate stops no probe
// (DESIGN.md §28), but probes still resume from the best run's trace, and
// every run's peak and peak time and the final offsets are still the
// full-horizon search's, by Float64bits.
func TestMillerAlignmentRunsResumeBitIdentical(t *testing.T) {
	checkSearchBitIdentical(t, core.EvalOptions{Dt: 2e-12, Miller: true})
}

// checkSearchBitIdentical runs AlignWorstCase under opts on every cluster
// of the reference design three times — as it runs, with every probe from
// step 1 (NoResume), and with every peak-only run to TStop from step 1
// (FullHorizon) — and requires the three searches to read the same peaks
// and peak times and end at the same offsets, by Float64bits, with the
// same engine runs. It logs the steps each search took and returns the
// share of the full-horizon search's steps the first one skipped.
func checkSearchBitIdentical(t *testing.T, opts core.EvalOptions) (skipped float64) {
	t.Helper()
	ctx := context.Background()
	d := sna.GenerateDesign("reference", 48)
	cache := charlib.NewCache()
	var stopped, fromStart, full, runs int64
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
		wantPeaks, wantOffsets, want := search(core.FullHorizon(opts))
		for _, v := range []struct {
			name string
			opts core.EvalOptions
			sum  *int64
		}{{"resumed", opts, &stopped}, {"from step 1", core.NoResume(opts), &fromStart}} {
			gotPeaks, gotOffsets, got := search(v.opts)
			if !slices.Equal(gotPeaks, wantPeaks) {
				t.Errorf("%s: %s: peaks and peak times of the search's runs differ from full-horizon runs", cs.Name, v.name)
			}
			for i := range gotOffsets {
				if math.Float64bits(gotOffsets[i]) != math.Float64bits(wantOffsets[i]) {
					t.Errorf("%s: %s: aggressor %d ends at offset %v, full-horizon search at %v", cs.Name, v.name, i, gotOffsets[i], wantOffsets[i])
				}
			}
			if got.EngineRuns != want.EngineRuns {
				t.Errorf("%s: %s: %d engine runs, full-horizon search %d", cs.Name, v.name, got.EngineRuns, want.EngineRuns)
			}
			*v.sum += got.EngineSteps
		}
		full += want.EngineSteps
		runs += want.EngineRuns
	}
	skipped = 1 - float64(stopped)/float64(full)
	t.Logf("%d runs took %d of %d full-horizon engine steps (%.1f %% skipped); from step 1 they took %d, so resumption skipped %d (%.1f %%)",
		runs, stopped, full, 100*skipped, fromStart, fromStart-stopped, 100*(1-float64(stopped)/float64(fromStart)))
	return skipped
}

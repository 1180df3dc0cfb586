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

// The alignment's driver-alone runs stop once the charge-contraction
// certificate (sim.Certificate, DESIGN.md §31) proves no later sample
// reaches the running peak, and that changes no number: on every cluster
// of the reference design with a victim glitch, AlignPeaks reads the same
// driver-alone peak and peak time as the run taken to TStop, by
// Float64bits, and ends at the same offsets, while skipping at least 70 %
// of those runs' steps. At least 14 of the 16 runs must stop; the test
// logs each refusal, and the slack beside the running peaks.
func TestDriverAloneRunsStopBitIdentical(t *testing.T) {
	ctx := context.Background()
	d := sna.GenerateDesign("reference", 48)
	cache := charlib.NewCache()
	var stoppedSteps, fullSteps, runs, stops int
	slackLo, slackHi, peakLo, peakHi := math.Inf(1), 0.0, math.Inf(1), 0.0
	for _, cs := range d.Clusters {
		if cs.Victim.GlitchHeightV == 0 {
			continue
		}
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
		type run struct {
			peak, tPeak uint64
			steps       int
			stopped     bool
			slack       float64
			refusal     string
		}
		align := func(opts core.EvalOptions) (r run, offsets []float64) {
			for i := range cl.Aggressors {
				cl.Aggressors[i].Offset = base[i]
			}
			opts = core.ObserveDriver(opts, func(peak, tPeak float64, steps int, cert *sim.Certificate) {
				r = run{peak: math.Float64bits(peak), tPeak: math.Float64bits(tPeak), steps: steps}
				if cert != nil {
					r.slack, r.refusal = cert.Slack(), cert.Refusal()
				}
			})
			if _, _, err := cl.AlignPeaks(ctx, models, opts); err != nil {
				t.Fatalf("%s: %v", cs.Name, err)
			}
			for i := range cl.Aggressors {
				offsets = append(offsets, cl.Aggressors[i].Offset)
			}
			return r, offsets
		}
		opts := core.EvalOptions{Dt: 2e-12}
		want, wantOff := align(core.FullHorizon(opts))
		got, gotOff := align(opts)
		if got.peak != want.peak || got.tPeak != want.tPeak {
			t.Errorf("%s: driver-alone peak %v at %v, full run %v at %v", cs.Name,
				math.Float64frombits(got.peak), math.Float64frombits(got.tPeak), math.Float64frombits(want.peak), math.Float64frombits(want.tPeak))
		}
		if !slices.Equal(gotOff, wantOff) {
			t.Errorf("%s: offsets %v, full run %v", cs.Name, gotOff, wantOff)
		}
		runs++
		stoppedSteps += got.steps
		fullSteps += want.steps
		peak := math.Float64frombits(got.peak)
		if got.steps < want.steps {
			stops++
			slackLo, slackHi = math.Min(slackLo, got.slack), math.Max(slackHi, got.slack)
			peakLo, peakHi = math.Min(peakLo, peak), math.Max(peakHi, peak)
			t.Logf("%s %s/%s: stopped at step %d of %d, peak %.4g V, slack %.3g V", cs.Name, cs.Victim.Cell, cs.Victim.NoisyPin, got.steps, want.steps, peak, got.slack)
		} else {
			t.Logf("%s %s/%s: ran all %d steps, peak %.4g V (last refusal: %q)", cs.Name, cs.Victim.Cell, cs.Victim.NoisyPin, got.steps, peak, got.refusal)
		}
	}
	skipped := 1 - float64(stoppedSteps)/float64(fullSteps)
	t.Logf("%d of %d driver-alone runs stopped; %d of %d steps taken (%.1f %% skipped); slack %.3g–%.3g V against running peaks %.4g–%.4g V",
		stops, runs, stoppedSteps, fullSteps, 100*skipped, slackLo, slackHi, peakLo, peakHi)
	if runs != 16 || stops < 14 {
		t.Errorf("%d of %d driver-alone runs stopped, want at least 14 of 16", stops, runs)
	}
	if skipped < 0.7 {
		t.Errorf("the driver-alone runs skipped %.1f %% of their steps, want at least 70 %%", 100*skipped)
	}
}

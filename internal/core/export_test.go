package core

import (
	"context"
	"slices"

	"stanoise/internal/sim"
)

// Hooks for the external tests of align_stop_test.go and resume_test.go.
// They build the reference design through sna, which imports core, so
// they cannot live in package core.

// FullHorizon returns opts with the alignment search's peak-only engine
// runs taken to TStop and measured on the recorded waveform: the search as
// it ran before those runs stopped once their peak was decided.
func FullHorizon(opts EvalOptions) EvalOptions {
	opts.forceFullHorizon = true
	return opts
}

// NoResume returns opts with every probe of the alignment search run from
// step 1: the search as it ran before probes resumed from the best run's
// trace.
func NoResume(opts EvalOptions) EvalOptions {
	opts.noResume = true
	return opts
}

// ObservePeaks returns opts with f handed the peak and peak time of every
// peak-only run of the alignment search, in order.
func ObservePeaks(opts EvalOptions, f func(peak, tPeak float64)) EvalOptions {
	opts.observe = f
	return opts
}

// ObserveDriver returns opts with f handed the alignment's driver-alone
// run: its peak and peak time, its steps and its certificate.
func ObserveDriver(opts EvalOptions, f func(peak, tPeak float64, steps int, cert *sim.Certificate)) EvalOptions {
	opts.observeDriver = f
	return opts
}

// CheckProbesStopEarly is checkProbesStopEarly.
var CheckProbesStopEarly = checkProbesStopEarly

// ProbeSources returns the port sources of an alignment probe at the
// cluster's current offsets, with the victim's Miller capacitor when
// miller is set.
func ProbeSources(c *Cluster, models *Models, miller bool) []PortSource {
	return c.macromodelSources(models, EvalOptions{Miller: miller})
}

// TimingSources returns the port sources of AlignPeaks' all-linear timing
// run of aggressor i at its current offset.
func TimingSources(c *Cluster, models *Models, i int) []PortSource {
	return c.portSources(models, &HoldingPort{G: models.HoldG, V0: models.QuietVic}, func(j int) bool { return j == i })
}

// PeakRun is one peak-only run of RunResumed: its peak and peak time, the
// engine steps it took, and the trace rows it recorded.
type PeakRun struct {
	Peak, TPeak float64
	Steps       int64
	Rows        []float64
}

// RunResumed runs the sources b peak-only on models, watching the victim
// driving point at quiet, twice: afresh, and resumed from the trace of a
// run of the sources a, as a search's probe resumes from its best run.
func RunResumed(models *Models, a, b []PortSource, opts EngineOptions, quiet float64) (fresh, resumed PeakRun, err error) {
	traced := func() *peakSearch {
		s := newPeakSearch(models.Red, opts.Dt)
		s.best, s.spare = new(engineTrace), new(engineTrace)
		return s
	}
	run := func(s *peakSearch, sources []PortSource) (PeakRun, error) {
		before := sim.Snapshot()
		peak, tPeak, err := enginePeak(context.Background(), models.Red, sources, models.V0, opts, models.VicPort, quiet, s)
		steps := sim.Snapshot().Sub(before).EngineSteps
		return PeakRun{Peak: peak, TPeak: tPeak, Steps: steps, Rows: slices.Clone(s.spare.rows)}, err
	}
	s := traced()
	if _, err := run(s, a); err != nil {
		return fresh, resumed, err
	}
	s.best, s.spare = s.spare, s.best
	if resumed, err = run(s, b); err != nil {
		return fresh, resumed, err
	}
	fresh, err = run(traced(), b)
	return fresh, resumed, err
}

package core

// Hooks for the external tests of align_stop_test.go. They build the
// reference design through sna, which imports core, so they cannot live in
// package core.

// FullHorizon returns opts with the alignment search's peak-only engine
// runs taken to TStop and measured on the recorded waveform: the search as
// it ran before those runs stopped once their peak was decided.
func FullHorizon(opts EvalOptions) EvalOptions {
	opts.forceFullHorizon = true
	return opts
}

// ObservePeaks returns opts with f handed the peak and peak time of every
// peak-only run of the alignment search, in order.
func ObservePeaks(opts EvalOptions, f func(peak, tPeak float64)) EvalOptions {
	opts.observe = f
	return opts
}

// CheckProbesStopEarly is checkProbesStopEarly.
var CheckProbesStopEarly = checkProbesStopEarly

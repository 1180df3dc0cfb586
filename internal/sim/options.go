package sim

import (
	"errors"
	"fmt"
	"math"
)

// The solver settings every session runs with. Capacitors integrate with
// the trapezoidal rule, and each Newton solve stops when a full update is
// below vTol and every node's residual below iTol.
const (
	maxNewton = 100   // Newton iteration cap per solve
	vTol      = 1e-9  // voltage convergence tolerance (V)
	iTol      = 1e-12 // residual current tolerance (A)
	gmin      = 1e-12 // minimum conductance to ground (S)
	maxStep   = 0.5   // Newton per-iteration voltage damping limit (V)
	defaultDt = 1e-12 // transient step of a session opened with none (s)
)

// ErrInvalidOptions is the sentinel wrapped by every *OptionsError, so
// callers can test the class with errors.Is without matching fields.
var ErrInvalidOptions = errors.New("sim: invalid options")

// OptionsError reports a simulation setting that cannot be used: a NaN or
// infinite step (NewSession) or stop time (RunTransient), or a step too
// long for the stop time to leave a single one (GridSteps). The
// characterisation layers above report their grid entries with it too
// (e.g. a zero glitch width). It unwraps to ErrInvalidOptions.
type OptionsError struct {
	Field string  // e.g. "Dt" or "TStop"
	Value float64 // the offending value
	// Want is the condition the value breaks, e.g. "positive and finite";
	// empty means "finite".
	Want string
}

// Error implements error.
func (e *OptionsError) Error() string {
	want := e.Want
	if want == "" {
		want = "finite"
	}
	return fmt.Sprintf("sim: invalid option %s = %g (must be %s)", e.Field, e.Value, want)
}

// Unwrap ties the typed error to the ErrInvalidOptions sentinel.
func (e *OptionsError) Unwrap() error { return ErrInvalidOptions }

// maxRecordedSamples caps the samples one transient may record, every
// signal's waveform and the time axis together: 2^25 float64, 256 MiB. A
// default 2 ps run of the macromodel engine records at most 5 signals over
// ~1 000 steps, and a transistor-level golden run tens of signals over
// ~1 000 steps, both orders of magnitude below. A finite but absurd Dt
// would otherwise size its result before the first step: 1e-7 ps over a
// 2 ns run asks for 5 × 2·10^10 float64, 800 GB.
const maxRecordedSamples = 1 << 25

// GridError reports a transient whose recorded waveforms would exceed the
// sample cap of GridSteps. It unwraps to ErrInvalidOptions.
type GridError struct {
	Dt, TStop float64
	Signals   int // recorded signals, the time axis included
}

// Error implements error.
func (e *GridError) Error() string {
	return fmt.Sprintf("sim: invalid option Dt = %g (TStop %g would record %d signals at %.4g time points, over the cap of %d samples)",
		e.Dt, e.TStop, e.Signals, math.Floor(e.TStop/e.Dt+0.5)+1, maxRecordedSamples)
}

// Unwrap ties the typed error to the ErrInvalidOptions sentinel.
func (e *GridError) Unwrap() error { return ErrInvalidOptions }

// GridSteps returns the step count n of the indexed transient grid
// t = k·dt, k = 0..n, which ends at the last step with t ≤ tstop + dt/2 —
// the step count of the legacy loop that accumulated t += dt. tstop and dt
// must be finite and positive. A step longer than twice tstop leaves no
// step at all, and a run would record its initial point alone and read
// no noise: it is rejected with an *OptionsError on Dt. A run that records
// signals waveforms (the time axis included) over the n+1 points, more
// than 2^25 samples in all, is rejected with a *GridError before anything
// is allocated.
func GridSteps(tstop, dt float64, signals int) (int, error) {
	n := math.Floor(tstop/dt + 0.5)
	if !(n >= 1) {
		return 0, &OptionsError{Field: "Dt", Value: dt, Want: fmt.Sprintf("at most 2·TStop = %g", 2*tstop)}
	}
	if (n+1)*float64(signals) > maxRecordedSamples {
		return 0, &GridError{Dt: dt, TStop: tstop, Signals: signals}
	}
	return int(n), nil
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Method selects the integration rule for capacitors.
type Method int

const (
	// Trapezoidal is second-order accurate and the default.
	Trapezoidal Method = iota
	// BackwardEuler is first-order and strongly damped; useful to start
	// transients or to suppress trapezoidal ringing.
	BackwardEuler
)

// Options configures a simulation run. The zero value is completed with
// sensible defaults by normalize. Non-finite values (NaN or ±Inf) in any
// numeric field are rejected with an *OptionsError before a solve starts —
// a NaN tolerance or timestep would otherwise pass every `<= 0` default
// check and silently never converge.
type Options struct {
	Dt     float64 // transient timestep (s); default 1 ps
	TStop  float64 // transient end time (s)
	Method Method  // integration rule; default Trapezoidal

	MaxNewton int     // Newton iteration cap per solve; default 100
	VTol      float64 // voltage convergence tolerance (V); default 1e-9
	ITol      float64 // residual current tolerance (A); default 1e-12
	Gmin      float64 // minimum conductance to ground (S); default 1e-12
	MaxStep   float64 // Newton per-iteration voltage damping limit (V); default 0.5

	// InitialGuess seeds DC node voltages by node name. Seeding nodes near
	// their quiet logic values both speeds convergence and selects the
	// intended operating point.
	InitialGuess map[string]float64
}

func (o Options) normalize() Options {
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 100
	}
	if o.VTol <= 0 {
		o.VTol = 1e-9
	}
	if o.ITol <= 0 {
		o.ITol = 1e-12
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxStep <= 0 {
		o.MaxStep = 0.5
	}
	return o
}

// ErrInvalidOptions is the sentinel wrapped by every *OptionsError, so
// callers can test the class with errors.Is without matching fields.
var ErrInvalidOptions = errors.New("sim: invalid options")

// OptionsError reports a simulation option that cannot be used: a NaN or
// infinite numeric field, or a NaN/Inf initial-guess voltage. It unwraps to
// ErrInvalidOptions.
type OptionsError struct {
	Field string  // e.g. "Dt" or `InitialGuess["out"]`
	Value float64 // the offending value
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("sim: invalid option %s = %g (must be finite)", e.Field, e.Value)
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
// must be finite and positive. A run that records signals waveforms (the
// time axis included) over the n+1 points, more than 2^25 samples in all,
// is rejected with a *GridError before anything is allocated.
func GridSteps(tstop, dt float64, signals int) (int, error) {
	n := math.Floor(tstop/dt + 0.5)
	if (n+1)*float64(signals) > maxRecordedSamples {
		return 0, &GridError{Dt: dt, TStop: tstop, Signals: signals}
	}
	return int(n), nil
}

// Validate rejects non-finite option values with an *OptionsError. Zero
// and negative values are legal — normalize replaces them with defaults —
// but NaN and ±Inf are programming errors that would otherwise disable
// convergence checks or run a transient forever.
func (o Options) Validate() error {
	fields := []struct {
		name string
		v    float64
	}{
		{"Dt", o.Dt},
		{"TStop", o.TStop},
		{"VTol", o.VTol},
		{"ITol", o.ITol},
		{"Gmin", o.Gmin},
		{"MaxStep", o.MaxStep},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &OptionsError{Field: f.name, Value: f.v}
		}
	}
	if len(o.InitialGuess) > 0 {
		// Deterministic reporting order for map-backed guesses.
		names := make([]string, 0, len(o.InitialGuess))
		for name := range o.InitialGuess {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if v := o.InitialGuess[name]; math.IsNaN(v) || math.IsInf(v, 0) {
				return &OptionsError{Field: fmt.Sprintf("InitialGuess[%q]", name), Value: v}
			}
		}
	}
	return nil
}

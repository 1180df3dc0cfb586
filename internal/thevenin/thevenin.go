// Package thevenin fits linear Thevenin-equivalent models of switching
// aggressor drivers: a saturated voltage ramp V_TH behind a resistance
// R_TH, following the approach of Dartu–Pileggi ("Calculating Worst-Case
// Gate Delay Due to Dominant Capacitance Coupling", DAC'97 — the paper's
// reference [7]).
//
// R_TH comes from the driver's DC strength at mid-swing; the ramp's start
// time and transition time are then fitted so the linear model's response
// into the driver's lumped load reproduces two crossing times of the
// transistor-level response. The fitted model is what the noise-cluster
// macromodel (Figure 1) places at each aggressor driving point.
package thevenin

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/wave"
)

// Driver is a fitted Thevenin model of a switching driver.
type Driver struct {
	V0, V1 float64 // pre- and post-transition output levels (V)
	T0     float64 // fitted ramp start time (s)
	Tr     float64 // fitted transition (ramp) time (s)
	RTh    float64 // Thevenin resistance (Ω)
}

// Waveform returns the saturated-ramp source V_TH(t).
func (d *Driver) Waveform() *wave.Waveform {
	return wave.SaturatedRamp(d.V0, d.V1, d.T0, d.Tr)
}

// Shifted returns a copy of the driver with its ramp start moved by dt —
// the knob the alignment search turns.
func (d *Driver) Shifted(dt float64) *Driver {
	out := *d
	out.T0 += dt
	return &out
}

// FitOptions tunes the fitting procedure.
type FitOptions struct {
	InputSlew float64 // input ramp transition time; default 60 ps
	InputT0   float64 // input ramp start; default 100 ps
}

// The golden switch simulation's step, and the two normalised swing
// fractions matched between the golden response and the linear model: the
// 50 % point and the 80 %-complete point. The golden run stops at the first
// sample at or past crossHi, so crossHi must be the later crossing. They
// are typed float64 so that constant expressions over them round as
// float64 arithmetic does: untyped, (1−crossLo)/(1−crossHi) would fold to
// exactly 2.5, where float64 gives 2.5000000000000004.
const (
	fitDt            float64 = 1e-12
	crossLo, crossHi float64 = 0.5, 0.8
)

// Fingerprint returns the canonical options key of a fit into a lumped
// load of loadCap farads: the load, the normalised input ramp, the golden
// step and the two crossings, each %.17g. Zero values and explicit
// defaults key identically. It keys every memoized and stored fit, so its
// text is pinned (sna.TestPinnedTheveninFingerprint).
func (o FitOptions) Fingerprint(loadCap float64) string {
	o = o.normalize()
	return fmt.Sprintf("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
		loadCap, o.InputSlew, o.InputT0, fitDt, crossLo, crossHi)
}

func (o FitOptions) normalize() FitOptions {
	if o.InputSlew <= 0 {
		o.InputSlew = 60e-12
	}
	if o.InputT0 <= 0 {
		o.InputT0 = 100e-12
	}
	return o
}

// Fit characterises the aggressor driver cl switching pin switchPin from
// fromState (the remaining pins stay at their fromState rails), driving a
// lumped load of loadCap farads.
//
// The fit reads only the two crossing times of the golden transistor-level
// response, so the golden run stops at its first sample at or past the 80 %
// crossing. The driver's output starts at the pre-transition rail
// (progress ≈ 0), so the 50 % crossing lies at or before that sample, and
// the fitted Driver is bit-identical to one fitted from the full window
// (DESIGN.md §16).
func Fit(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts FitOptions) (*Driver, error) {
	return fit(ctx, cl, fromState, switchPin, loadCap, opts, true)
}

// fit is Fit with the golden run's early stop as an argument: Fit passes
// true, and the tests pass false for the full-window reference the stopped
// fit is held to bit for bit.
func fit(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts FitOptions, stopEarly bool) (*Driver, error) {
	opts = opts.normalize()
	toState := fromState.Clone()
	toState[switchPin] = !toState[switchPin]
	out0 := cl.Logic(fromState)
	out1 := cl.Logic(toState)
	if out0 == out1 {
		return nil, fmt.Errorf("thevenin: switching %s does not toggle %s output (state %v)",
			switchPin, cl.Name(), fromState)
	}
	v0 := cl.PinVoltage(out0)
	v1 := cl.PinVoltage(out1)

	rth, err := midSwingResistance(cl, toState, v0, v1)
	if err != nil {
		return nil, err
	}

	// Golden transistor-level response, and the crossing times of its
	// normalised transition progress.
	progress := func(v float64) float64 { return (v - v0) / (v1 - v0) }
	var stop func(v float64) bool
	if stopEarly {
		stop = func(v float64) bool { return progress(v) >= crossHi }
	}
	goldenOut, err := simulateSwitch(ctx, cl, fromState, switchPin, loadCap, opts, stop)
	if err != nil {
		return nil, err
	}
	tA := crossingTime(goldenOut, progress, crossLo)
	tB := crossingTime(goldenOut, progress, crossHi)
	if math.IsInf(tA, 0) || math.IsInf(tB, 0) || tB <= tA {
		return nil, fmt.Errorf("thevenin: golden response of %s never completes its transition", cl.Name())
	}

	// Fit the ramp duration so the linear model reproduces the crossing
	// spread tB−tA, then place t0 from the first crossing.
	tau := rth * loadCap
	spread := tB - tA
	trFit := fitRampDuration(tau, spread)
	if trFit <= 2e-13 && loadCap > 0 {
		// The golden transition is sharper than the pure RC tail of the
		// mid-swing resistance: even an instantaneous ramp spreads too
		// much. Re-fit the resistance from the observed spread instead
		// (the Dartu–Pileggi iteration adapts R_TH the same way) and keep
		// a short ramp.
		tauFit := spread / math.Log((1-crossLo)/(1-crossHi))
		if tauFit > 0 && tauFit < tau {
			rth = tauFit / loadCap
			tau = tauFit
		}
		trFit = fitRampDuration(tau, spread)
	}
	t0 := tA - rampCrossing(trFit, tau, crossLo)
	return &Driver{V0: v0, V1: v1, T0: t0, Tr: trFit, RTh: rth}, nil
}

// midSwingResistance computes R_TH from the driver's DC current at
// mid-swing in its post-transition input state: R = (VDD/2)/|I(mid)|.
func midSwingResistance(cl *cell.Cell, toState cell.State, v0, v1 float64) (float64, error) {
	ckt, err := cl.Bench(toState)
	if err != nil {
		return 0, err
	}
	mid := 0.5 * (v0 + v1)
	ckt.AddVDC("vforce", "out", "0", mid)
	// A fit solves this bench exactly once, so the one-shot wrapper (which
	// compiles and opens a session internally) is the right interface.
	dc, err := sim.DC(ckt, sim.Options{})
	if err != nil {
		return 0, fmt.Errorf("thevenin: mid-swing DC: %w", err)
	}
	i := math.Abs(dc.BranchI("vforce"))
	if i <= 0 {
		return 0, fmt.Errorf("thevenin: %s sources no current at mid-swing", cl.Name())
	}
	return math.Abs(mid-v1) / i, nil
}

// simulateSwitch runs the golden transistor-level switch of the driver
// into loadCap and returns its output waveform. With a non-nil stop the run
// ends at the first sample whose output voltage stop accepts; a nil stop
// simulates the whole window. The session is cold (no warm start, no
// predictor): a fit solves this bench once.
func simulateSwitch(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts FitOptions, stop func(v float64) bool) (*wave.Waveform, error) {
	ckt, err := cl.Bench(fromState)
	if err != nil {
		return nil, err
	}
	if loadCap > 0 {
		ckt.AddC("cl", "out", "0", loadCap)
	}
	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, sim.Options{Dt: fitDt})
	if err != nil {
		return nil, fmt.Errorf("thevenin: golden switch simulation: %w", err)
	}
	from, to := cl.PinVoltage(fromState[switchPin]), cl.PinVoltage(!fromState[switchPin])
	sess.SetSource(prog.MustSource("v_"+switchPin), wave.SaturatedRamp(from, to, opts.InputT0, opts.InputSlew))
	var until func(x []float64) bool
	if stop != nil {
		out, _ := ckt.LookupNode("out")
		until = func(x []float64) bool { return stop(x[out]) }
	}
	var res sim.Result
	tstop := opts.InputT0 + opts.InputSlew + 2e-9
	if err := sess.RunTransientUntil(ctx, &res, tstop, until); err != nil {
		return nil, fmt.Errorf("thevenin: golden switch simulation: %w", err)
	}
	return res.Waveform("out"), nil
}

// crossingTime returns the first time the normalised progress crosses frac.
func crossingTime(w *wave.Waveform, progress func(float64) float64, frac float64) float64 {
	for i := 1; i < len(w.T); i++ {
		p0, p1 := progress(w.V[i-1]), progress(w.V[i])
		if p0 < frac && p1 >= frac {
			f := (frac - p0) / (p1 - p0)
			return w.T[i-1] + f*(w.T[i]-w.T[i-1])
		}
	}
	return math.Inf(1)
}

// rampResponse returns the normalised transition progress of an RC load
// driven by a unit saturated ramp of duration tr through time constant tau,
// evaluated at time u after the ramp start. Progress goes 0→1.
func rampResponse(u, tr, tau float64) float64 {
	if u <= 0 {
		return 0
	}
	if u <= tr {
		// p(u) = (u - tau(1-e^{-u/tau})) / tr
		return (u - tau*(1-math.Exp(-u/tau))) / tr
	}
	pEnd := (tr - tau*(1-math.Exp(-tr/tau))) / tr
	return 1 - (1-pEnd)*math.Exp(-(u-tr)/tau)
}

// rampCrossing returns the time after ramp start at which rampResponse
// crosses frac (bisection; the response is monotonic).
func rampCrossing(tr, tau, frac float64) float64 {
	lo, hi := 0.0, tr+40*tau+1e-12
	for rampResponse(hi, tr, tau) < frac {
		hi *= 2
		if hi > 1 { // 1 second — hopeless
			return math.Inf(1)
		}
	}
	for k := 0; k < 80; k++ {
		pLo, pHi := lo, hi
		midT := 0.5 * (lo + hi)
		if rampResponse(midT, tr, tau) < frac {
			lo = midT
		} else {
			hi = midT
		}
		if lo == pLo && hi == pHi {
			// A fixed point: every later pass leaves (lo, hi) unchanged too.
			break
		}
	}
	return 0.5 * (lo + hi)
}

// fitRampDuration finds tr such that the spread between the two crossing
// times of the linear model equals the golden spread. The spread grows
// monotonically with tr, so bisection is safe.
func fitRampDuration(tau, spread float64) float64 {
	spreadOf := func(tr float64) float64 {
		return rampCrossing(tr, tau, crossHi) - rampCrossing(tr, tau, crossLo)
	}
	lo := 1e-13
	hi := 10 * spread
	for spreadOf(hi) < spread && hi < 1e-6 {
		hi *= 2
	}
	if spreadOf(lo) > spread {
		// Even an instantaneous ramp spreads more than the golden response
		// (pure RC tail dominates): use the minimal ramp.
		return lo
	}
	for k := 0; k < 70; k++ {
		pLo, pHi := lo, hi
		mid := 0.5 * (lo + hi)
		if spreadOf(mid) < spread {
			lo = mid
		} else {
			hi = mid
		}
		if lo == pLo && hi == pHi {
			break // a fixed point, as in rampCrossing
		}
	}
	return 0.5 * (lo + hi)
}

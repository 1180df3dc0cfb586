// Package nrc characterises Noise Rejection Curves — the dynamic noise
// margins the paper's §1 describes: "the noise at the victim receiver is
// compared against dynamic noise margins, represented by the Noise
// Rejection Curve (NRC). When the noise waveform width (or area) and
// amplitude are in the NRC failure region (i.e., above the curve), the
// noise analysis tool flags an error."
//
// A curve is built per (receiver cell, state, pin) by bisecting, for each
// glitch width, the smallest input glitch height whose propagated
// disturbance at the receiver output exceeds a failure threshold.
package nrc

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/wave"
)

// Curve is a characterised noise rejection curve: Heights[i] is the
// smallest failing glitch height at width Widths[i]. A glitch whose
// (width, height) lies on or above the curve is a functional failure.
type Curve struct {
	CellName string
	State    string
	Pin      string
	FailFrac float64 // output deviation fraction of VDD declared a failure

	Widths  []float64 // ascending (s)
	Heights []float64 // failing height per width (V); +Inf when unfailable
}

// LoadCap is the receiver output load every NRC is characterised into (F).
// The cache fingerprint of a curve carries it, so stored curves stay keyed
// on the load they were built with.
const LoadCap = 30e-15

// Options tunes NRC characterisation.
type Options struct {
	Widths   []float64 // default {50, 100, 200, 400, 800, 1600} ps
	FailFrac float64   // default 0.5 (50 % of VDD at the receiver output)
	Tol      float64   // bisection tolerance on height (V); default 10 mV
	Dt       float64   // transient step; default 2 ps
}

// Normalized returns the options with every default filled in — the
// canonical form callers should fingerprint when memoizing curves, so that
// zero values and explicit defaults key identically.
func (o Options) Normalized() Options { return o.normalize() }

func (o Options) normalize() Options {
	if len(o.Widths) == 0 {
		o.Widths = []float64{50e-12, 100e-12, 200e-12, 400e-12, 800e-12, 1600e-12}
	}
	if o.FailFrac <= 0 {
		o.FailFrac = 0.5
	}
	if o.Tol <= 0 {
		o.Tol = 0.01
	}
	if o.Dt <= 0 {
		o.Dt = 2e-12
	}
	return o
}

// validate rejects normalized options the bisection cannot use, with an
// *sim.OptionsError naming the field: a width that is not positive and
// finite, or a FailFrac or Tol that is not finite. A NaN FailFrac would
// put the failure threshold out of reach of every probe and report the
// receiver unfailable; a NaN Tol would end each bisection at once.
func (o Options) validate() error {
	for i, w := range o.Widths {
		if !(w > 0) || math.IsInf(w, 0) {
			return &sim.OptionsError{Field: fmt.Sprintf("NRCOptions.Widths[%d]", i), Value: w, Want: "positive and finite"}
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"NRCOptions.FailFrac", o.FailFrac}, {"NRCOptions.Tol", o.Tol}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &sim.OptionsError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// Characterize builds the NRC of a receiver input pin in the given quiet
// state. The glitch is applied from the pin's quiet rail towards the
// opposite rail, which is the polarity a victim net in that state can
// experience. The context is honoured between bisection probes, so a
// cancelled analysis abandons the curve mid-characterisation.
//
// The rig's session is seeded (sim.Session.Seed): every probe's operating
// point is warm-started from the previous probe's — the receiver's quiet
// point is the same across probes, so every probe after the first starts
// converged — and each timestep after a probe's first is seeded by the
// polynomial predictor.
// Heights agree with a cold characterisation within one bisection bracket
// (TestWarmStartCurveMatchesCold).
//
// Options the bisection cannot use — a width that is not positive and
// finite, a FailFrac or Tol that is not finite — are an *sim.OptionsError
// naming the field.
//
// A probe's transient stops at its first failing sample: one sample
// decides a failure, and the next probe's warm seed is the DC point, not
// the transient's last state, so every height is bit-identical to a curve
// whose probes run their whole window (DESIGN.md §16).
//
// The counters are the probe session's solver work. They are returned on
// failure and cancellation too: abandoned probes burned real iterations.
func Characterize(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts Options) (*Curve, sim.Counters, error) {
	return characterize(ctx, cl, st, pin, opts, true)
}

// characterize is Characterize with the probes' Newton seeding as an
// argument: every caller outside the tests passes true, and the tests pass
// false for the cold reference the seeded curve is held to.
func characterize(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts Options, seeded bool) (_ *Curve, work sim.Counters, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalize()
	if err := opts.validate(); err != nil {
		return nil, work, err
	}
	if !cl.HasInput(pin) {
		return nil, work, fmt.Errorf("nrc: %s has no pin %q", cl.Name(), pin)
	}
	c := &Curve{
		CellName: cl.Name(),
		State:    st.String(),
		Pin:      pin,
		FailFrac: opts.FailFrac,
		Widths:   opts.Widths,
		Heights:  make([]float64, len(opts.Widths)),
	}
	// Compile the receiver test bench once; every bisection probe across
	// every width reuses the same sim.Session with only the glitch
	// waveform swapped.
	rig, err := newGlitchRig(cl, st, pin, opts, seeded)
	if err != nil {
		return nil, work, err
	}
	defer func() { work = rig.sess.Stats() }()
	for i, w := range opts.Widths {
		h, err := bisectFailingHeight(ctx, rig, w, opts)
		if err != nil {
			return nil, work, fmt.Errorf("nrc: width %.0f ps: %w", w*1e12, err)
		}
		c.Heights[i] = h
	}
	// Sanity: the curve must be non-increasing within tolerance (wider
	// glitches fail at lower heights).
	for i := 1; i < len(c.Heights); i++ {
		if c.Heights[i] > c.Heights[i-1]+opts.Tol && !math.IsInf(c.Heights[i-1], 1) {
			return nil, work, fmt.Errorf("nrc: non-monotonic curve at width %.0f ps (%.3f after %.3f)",
				opts.Widths[i]*1e12, c.Heights[i], c.Heights[i-1])
		}
	}
	return c, work, nil
}

// glitchT0 is the glitch start time of every NRC probe.
const glitchT0 = 100e-12

// glitchRig is a compiled receiver test bench: the cell with a mutable
// triangular glitch source on the probed pin and a fixed output load. One
// rig serves every bisection probe of a curve.
type glitchRig struct {
	sess     *sim.Session
	hGlitch  sim.SourceHandle
	vdd      float64
	quietIn  float64
	quietOut float64
	sign     float64
	// stop ends a probe at its first failing sample, by the comparison
	// glitchFails makes on the measured peak: |v − quietOut| ≥ FailFrac·VDD.
	// A nil stop runs every probe to the end of its window.
	stop func(x []float64) bool
	// res is the reused transient result storage: after the first probe a
	// bisection step allocates only its glitch waveform and measurement.
	res sim.Result
}

func newGlitchRig(cl *cell.Cell, st cell.State, pin string, opts Options, seeded bool) (*glitchRig, error) {
	// The probed pin's glitch replaces its rail per probe via SetSource.
	ckt, err := cl.Bench(st)
	if err != nil {
		return nil, err
	}
	ckt.AddC("cl", "out", "0", LoadCap)
	quietIn := cl.PinVoltage(st[pin])
	sign := 1.0
	if st[pin] {
		sign = -1
	}
	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, opts.Dt)
	if err != nil {
		return nil, err
	}
	sess.Seed(seeded)
	quietOut := cl.PinVoltage(cl.Logic(st))
	out, _ := ckt.LookupNode("out")
	thr := opts.FailFrac * cl.Tech.VDD
	return &glitchRig{
		sess:     sess,
		hGlitch:  prog.MustSource("v_" + pin),
		vdd:      cl.Tech.VDD,
		quietIn:  quietIn,
		quietOut: quietOut,
		sign:     sign,
		stop:     func(x []float64) bool { return math.Abs(x[out]-quietOut) >= thr },
	}, nil
}

// bisectFailingHeight finds the smallest glitch height that fails, or +Inf
// when even a rail-to-rail-plus-margin glitch passes.
func bisectFailingHeight(ctx context.Context, rig *glitchRig, width float64, opts Options) (float64, error) {
	vdd := rig.vdd
	hi := 1.2 * vdd
	fails, err := rig.glitchFails(ctx, hi, width, opts)
	if err != nil {
		return 0, err
	}
	if !fails {
		return math.Inf(1), nil
	}
	lo := 0.05 * vdd
	fails, err = rig.glitchFails(ctx, lo, width, opts)
	if err != nil {
		return 0, err
	}
	if fails {
		return lo, nil
	}
	for hi-lo > opts.Tol {
		mid := 0.5 * (lo + hi)
		fails, err = rig.glitchFails(ctx, mid, width, opts)
		if err != nil {
			return 0, err
		}
		if fails {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// glitchFails simulates the receiver with a triangular glitch on the pin
// and reports whether the output deviation exceeds the failure threshold.
// The run stops at the first failing sample (r.stop); the recorded prefix
// holds that sample, so its measured peak fails exactly as the full run's.
func (r *glitchRig) glitchFails(ctx context.Context, height, width float64, opts Options) (bool, error) {
	r.sess.SetSource(r.hGlitch, wave.Triangle(r.quietIn, r.sign*height, glitchT0, width))
	if err := r.sess.RunTransient(ctx, &r.res, glitchT0+width+1e-9, r.stop); err != nil {
		return false, err
	}
	m := wave.MeasureNoise(r.res.Waveform("out"), r.quietOut)
	return m.Peak >= opts.FailFrac*r.vdd, nil
}

// FailingHeight interpolates the curve at the given width (clamped to the
// characterised range).
func (c *Curve) FailingHeight(width float64) float64 {
	n := len(c.Widths)
	if width <= c.Widths[0] {
		return c.Heights[0]
	}
	if width >= c.Widths[n-1] {
		return c.Heights[n-1]
	}
	for i := 1; i < n; i++ {
		if width < c.Widths[i] {
			if math.IsInf(c.Heights[i-1], 1) || math.IsInf(c.Heights[i], 1) {
				return c.Heights[i] // conservative: the finite (smaller) bound
			}
			f := (width - c.Widths[i-1]) / (c.Widths[i] - c.Widths[i-1])
			return c.Heights[i-1] + f*(c.Heights[i]-c.Heights[i-1])
		}
	}
	return c.Heights[n-1]
}

// Fails reports whether a glitch of the given height and width lies in the
// failure region (on or above the curve).
func (c *Curve) Fails(height, width float64) bool {
	return height >= c.FailingHeight(width)
}

// MarginV returns the height margin to failure at the given width:
// positive means the glitch passes with that much headroom.
func (c *Curve) MarginV(height, width float64) float64 {
	hf := c.FailingHeight(width)
	if math.IsInf(hf, 1) {
		return math.Inf(1)
	}
	return hf - height
}

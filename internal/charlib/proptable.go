package charlib

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/wave"
)

// PropTable is a pre-characterised noise-propagation table: for an input
// glitch of given height and width on the noisy pin and a lumped output
// load, it records the peak and area of the glitch that appears at the cell
// output. This is the table-driven propagated-noise model of traditional
// SNA flows ("usually obtained from pre-characterized tables as a function
// of the input noise glitch area (or width) and height", paper §1) and
// feeds the linear-superposition baseline.
type PropTable struct {
	CellName string
	State    string
	NoisyPin string

	Heights []float64 // input glitch heights (V), ascending
	Widths  []float64 // input glitch base widths (s), ascending
	Loads   []float64 // lumped output loads (F), ascending

	// Peak and Area are indexed [h][w][l]; Peak in volts (magnitude),
	// Area in V·s. OutSign is the polarity of the output glitch.
	Peak    [][][]float64
	Area    [][][]float64
	OutSign float64
	// QuietOut is the quiet output level the glitches deviate from.
	QuietOut float64
}

// PropOptions tunes propagation-table characterisation.
type PropOptions struct {
	Heights []float64 // default 8 points, 0.15·VDD … 1.1·VDD
	Widths  []float64 // default {60,120,240,480,900} ps
	Loads   []float64 // default {10,40,120,300} fF
	Dt      float64   // probe step at the start and after each glitch knot; default 1 ps
}

func (o PropOptions) normalize(vdd float64) PropOptions {
	if len(o.Heights) == 0 {
		for _, f := range []float64{0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0, 1.1} {
			o.Heights = append(o.Heights, f*vdd)
		}
	}
	if len(o.Widths) == 0 {
		o.Widths = []float64{60e-12, 120e-12, 240e-12, 480e-12, 900e-12}
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{10e-15, 40e-15, 120e-15, 300e-15}
	}
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	return o
}

// validate rejects a normalized grid the probes cannot simulate, with an
// *sim.OptionsError naming the entry: every height must be finite, every
// width positive and finite, every load non-negative and finite.
func (o PropOptions) validate() error {
	for _, ax := range []struct {
		name string
		vs   []float64
		min  float64 // the least legal value; -Inf for none
		want string
	}{
		{"Heights", o.Heights, math.Inf(-1), ""},
		{"Widths", o.Widths, math.SmallestNonzeroFloat64, "positive and finite"},
		{"Loads", o.Loads, 0, "non-negative and finite"},
	} {
		for i, v := range ax.vs {
			if !(v >= ax.min) || math.IsInf(v, 0) {
				return &sim.OptionsError{Field: fmt.Sprintf("PropOptions.%s[%d]", ax.name, i), Value: v, Want: ax.want}
			}
		}
	}
	return nil
}

// propMode selects how the probes of a table run. Every caller outside the
// tests passes propSeeded; the tests pass the two references it is held
// to.
type propMode int

const (
	// propSeeded is the one production path: warm start, predictor and the
	// adaptive time axis.
	propSeeded propMode = iota
	// propCold runs the adaptive axis from cold Newton seeds.
	propCold
	// propFixed runs the seeded probes on the fixed Dt grid.
	propFixed
)

// characterizePropagation simulates the cell transistor-level for every
// (height, width, load) combination: a triangular glitch is applied to the
// noisy pin from its quiet rail towards the opposite rail, and the output
// deviation is measured.
//
// The receiver netlist is compiled once; every (height, width, load) probe
// reuses the same sim.Session with only the glitch waveform and the lumped
// load value mutated (sim.Session.SetSource / SetLoad). Each probe runs on
// the adaptive time axis (sim.Session.RunTransientAdaptive, DESIGN.md
// §21): Dt at the start and after every knot of the glitch, then steps
// from Dt/4 to 64·Dt as the error estimate allows, so fast edges are
// integrated more finely than on a fixed Dt grid and the settled tail
// costs a few dozen steps instead of a thousand. Each probe's operating point is
// warm-started from the previous probe's and each timestep after a probe's
// first, and after each glitch knot, is seeded by the polynomial predictor
// (sim.Session.Seed switches both); peaks and areas agree
// with a cold characterisation within solver tolerance
// (TestWarmStartPropTableMatchesCold), and with a fixed-grid table at
// Dt/4 at least as closely as the fixed grid at Dt does
// (TestAdaptivePropTableAccuracy).
//
// A grid that cannot be simulated — a width that is not positive and
// finite, a load that is negative or not finite, a height that is not
// finite — is an *sim.OptionsError naming the entry.
//
// It also returns the rig session's solver counters, which the cache
// charges to the card's corner, on failure and cancellation too. mode
// selects how the probes run: Cache.PropTable, the one caller outside the
// tests, passes propSeeded.
func characterizePropagation(ctx context.Context, cl *cell.Cell, st cell.State, noisyPin string, opts PropOptions, mode propMode) (_ *PropTable, work sim.Counters, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalize(cl.Tech.VDD)
	if err := opts.validate(); err != nil {
		return nil, work, err
	}
	pt := &PropTable{
		CellName: cl.Name(),
		State:    st.String(),
		NoisyPin: noisyPin,
		Heights:  opts.Heights,
		Widths:   opts.Widths,
		Loads:    opts.Loads,
		QuietOut: cl.PinVoltage(cl.Logic(st)),
	}
	if !cl.HasInput(noisyPin) {
		return nil, work, fmt.Errorf("charlib: %s has no pin %q", cl.Name(), noisyPin)
	}
	quietIn := cl.PinVoltage(st[noisyPin])
	glitchSign := 1.0
	if st[noisyPin] {
		glitchSign = -1
	}
	rig, err := newPropRig(cl, st, noisyPin, quietIn, opts, mode)
	if err != nil {
		return nil, work, err
	}
	defer func() { work = rig.sess.Stats() }()
	pt.Peak = make([][][]float64, len(pt.Heights))
	pt.Area = make([][][]float64, len(pt.Heights))
	// The polarity is taken from the strongest response, where true
	// propagation dominates; tiny sub-threshold entries can be dominated
	// by capacitive feedthrough of the opposite sign.
	maxPeak := 0.0
	for hi, h := range pt.Heights {
		pt.Peak[hi] = make([][]float64, len(pt.Widths))
		pt.Area[hi] = make([][]float64, len(pt.Widths))
		for wi, w := range pt.Widths {
			pt.Peak[hi][wi] = make([]float64, len(pt.Loads))
			pt.Area[hi][wi] = make([]float64, len(pt.Loads))
			for li, load := range pt.Loads {
				if err := ctx.Err(); err != nil {
					return nil, work, err
				}
				m, err := rig.propagate(ctx, glitchSign*h, w, load, pt.QuietOut)
				if err != nil {
					return nil, work, fmt.Errorf("charlib: propagation h=%.2f w=%.0fps: %w", h, w*1e12, err)
				}
				pt.Peak[hi][wi][li] = m.Peak
				pt.Area[hi][wi][li] = m.Area
				if m.Peak > maxPeak {
					maxPeak = m.Peak
					pt.OutSign = m.Sign
				}
			}
		}
	}
	if pt.OutSign == 0 {
		pt.OutSign = -1
	}
	return pt, work, nil
}

// propT0 is the glitch start time of every propagation probe.
const propT0 = 100e-12

// propRig is a compiled propagation test bench: the cell driven by a
// mutable glitch source into a mutable lumped load. res is the reused
// transient result storage — after the first probe, a propagate call
// allocates only its glitch waveform and measured output.
type propRig struct {
	sess    *sim.Session
	hGlitch sim.SourceHandle
	hLoad   sim.CapHandle
	quietIn float64
	fixed   bool // the fixed-grid test reference (propFixed)
	res     sim.Result
}

func newPropRig(cl *cell.Cell, st cell.State, noisyPin string, quietIn float64, opts PropOptions, mode propMode) (*propRig, error) {
	// The noisy pin's glitch replaces its rail per probe via SetSource.
	ckt, err := cl.Bench(st)
	if err != nil {
		return nil, err
	}
	// Placeholder load; replaced per probe via SetLoad.
	ckt.AddC("cload", "out", "0", 1e-15)
	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, opts.Dt)
	if err != nil {
		return nil, err
	}
	sess.Seed(mode != propCold)
	return &propRig{
		sess:    sess,
		hGlitch: prog.MustSource("v_" + noisyPin),
		hLoad:   prog.MustCap("cload"),
		quietIn: quietIn,
		fixed:   mode == propFixed,
	}, nil
}

func (r *propRig) propagate(ctx context.Context, height, width, load, quietOut float64) (wave.NoiseMetrics, error) {
	r.sess.SetSource(r.hGlitch, wave.Triangle(r.quietIn, height, propT0, width))
	r.sess.SetLoad(r.hLoad, load)
	// Reuse the rig's result storage across probes; Waveform copies the
	// samples it extracts, so the measured output survives the next probe
	// overwriting res.
	tstop := propT0 + width + 1.2e-9
	var err error
	if r.fixed {
		err = r.sess.RunTransient(ctx, &r.res, tstop, nil)
	} else {
		err = r.sess.RunTransientAdaptive(ctx, &r.res, tstop)
	}
	if err != nil {
		return wave.NoiseMetrics{}, err
	}
	return wave.MeasureNoise(r.res.Waveform("out"), quietOut), nil
}

// Lookup interpolates peak and area trilinearly at (height, width, load),
// clamping to the table boundary. An axis with a single point is constant
// along it: only axes with two or more points are interpolated.
func (pt *PropTable) Lookup(height, width, load float64) (peak, area float64) {
	hi, th := bracket(pt.Heights, height)
	wi, tw := bracket(pt.Widths, width)
	li, tl := bracket(pt.Loads, load)
	nh, nw, nl := min(len(pt.Heights), 2), min(len(pt.Widths), 2), min(len(pt.Loads), 2)
	lerp3 := func(tab [][][]float64) float64 {
		acc := 0.0
		for dh := 0; dh < nh; dh++ {
			for dw := 0; dw < nw; dw++ {
				for dl := 0; dl < nl; dl++ {
					w := wgt(th, dh) * wgt(tw, dw) * wgt(tl, dl)
					acc += w * tab[hi+dh][wi+dw][li+dl]
				}
			}
		}
		return acc
	}
	return lerp3(pt.Peak), lerp3(pt.Area)
}

func wgt(t float64, d int) float64 {
	if d == 1 {
		return t
	}
	return 1 - t
}

// bracket finds the interpolation cell and fraction for x in ascending xs.
func bracket(xs []float64, x float64) (int, float64) {
	n := len(xs)
	if n == 1 {
		return 0, 0
	}
	if x <= xs[0] {
		return 0, 0
	}
	if x >= xs[n-1] {
		return n - 2, 1
	}
	for i := 1; i < n; i++ {
		if x < xs[i] {
			return i - 1, (x - xs[i-1]) / (xs[i] - xs[i-1])
		}
	}
	return n - 2, 1
}

// Waveform reconstructs the propagated glitch as a triangular waveform with
// the looked-up peak and area, its apex placed at tPeak. Peak and area
// determine the base width (2·area/peak); this is the analytical waveform
// reconstruction used when table-based flows need to combine noises.
func (pt *PropTable) Waveform(height, width, load, tPeak float64) *wave.Waveform {
	peak, area := pt.Lookup(height, width, load)
	if peak <= 0 {
		return wave.Constant(pt.QuietOut)
	}
	base := 2 * area / peak
	if base <= 0 {
		base = width
	}
	return wave.Triangle(pt.QuietOut, pt.OutSign*peak, tPeak-base/2, base)
}

// MaxPeak returns the largest characterised output peak, a sanity metric.
func (pt *PropTable) MaxPeak() float64 {
	max := 0.0
	for _, byW := range pt.Peak {
		for _, byL := range byW {
			for _, p := range byL {
				max = math.Max(max, p)
			}
		}
	}
	return max
}

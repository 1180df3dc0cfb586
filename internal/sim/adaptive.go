package sim

import (
	"math"
	"slices"

	"stanoise/internal/wave"
)

// The adaptive trapezoidal run (RunTransientAdaptive, DESIGN.md §21)
// draws every step from the set Dt·2^j, j = minLevel..maxLevel, and lands
// every breakpoint as a sample. A step is accepted when its local truncation
// error, estimated on capacitor charge from the accepted solutions, is at
// most lteTol plus lteRel of the largest deviation the capacitor's voltage
// has made from its operating point so far in the run; the next step is
// the largest of the set, at most double the last, whose predicted error
// is half that bound.
const (
	lteTol   = 1e-7 // absolute LTE bound per step (V)
	lteRel   = 5e-5 // LTE bound per step relative to the capacitor's swing so far
	minLevel = -2   // the shortest step is Dt·2^minLevel
	maxLevel = 6    // the largest step is Dt·2^maxLevel
)

// stepper is the time axis of one transient run. A fixed-grid run steps
// t = k·Dt, k = 1..nsteps, the indexed grid. An adaptive run steps
// t = base + k·Dt/4, with base the last breakpoint it landed and k
// advanced by the units of each accepted step, and a step that would
// reach or pass the next breakpoint lands on it instead.
type stepper struct {
	adaptive bool
	dt       float64
	nsteps   int // the fixed grid's step count; an adaptive run ends at nsteps·Dt too

	k     int     // grid units since t = 0 (fixed, Dt) or since base (adaptive, Dt/4)
	base  float64 // adaptive: the last breakpoint landed, or 0
	level int     // adaptive: the next step is Dt·2^level unless it lands
	units int     // adaptive: the pending step's Dt/4 units
	bps   []float64
	nextB int  // index in bps of the next breakpoint
	land  bool // the pending step lands on bps[nextB]
}

// propose returns the end time and the length of the pending step, and
// false when the run is complete.
func (st *stepper) propose(t float64) (float64, float64, bool) {
	if !st.adaptive {
		if st.k >= st.nsteps {
			return 0, 0, false
		}
		return float64(st.k+1) * st.dt, st.dt, true
	}
	if st.nextB == len(st.bps) {
		return 0, 0, false
	}
	st.units = 1 << (st.level - minLevel)
	unit := st.dt / (1 << -minLevel)
	tn, bp := st.base+float64(st.k+st.units)*unit, st.bps[st.nextB]
	// A grid point within round-off of the breakpoint lands on it too,
	// rather than leaving a sliver step behind.
	st.land = tn > bp-1e-3*st.dt
	if st.land {
		return bp, bp - t, true
	}
	return tn, float64(st.units) * unit, true
}

// accept advances past the pending step. It reports whether the step
// landed on a breakpoint: the next step then starts again at Dt, and the
// caller restarts the solution history the predictor and the estimator
// read.
func (st *stepper) accept() bool {
	if !st.adaptive {
		st.k++
		return false
	}
	if st.land {
		st.base, st.k, st.level = st.bps[st.nextB], 0, 0
		st.nextB++
		return true
	}
	st.k += st.units
	return false
}

// control takes the LTE estimate of a step of length h as a ratio to its
// bound and sets the level of the next step, or of the retry: the largest
// level, at most one above the current one and at most maxLevel, whose
// predicted ratio ratio·(Dt·2^level/h)³ is at most 1/2. It reports false
// when the step must be retried: its error exceeds the bound and a shorter
// step of the set exists.
func (st *stepper) control(ratio, h float64) bool {
	reject := ratio > 1 && st.level > minLevel
	top := min(st.level+1, maxLevel)
	if reject {
		top = st.level - 1
	}
	st.level = minLevel
	for l := top; l > minLevel; l-- {
		r := math.Ldexp(st.dt, l) / h
		if ratio*r*r*r <= 0.5 {
			st.level = l
			break
		}
	}
	return !reject
}

// breakpoints returns every knot in (0, tEnd) where a source waveform's
// slope changes, ascending and without duplicates, then tEnd itself, in
// the session's reused buffer. The 1 fs guard knots of wave.Triangle and
// wave.SaturatedRamp join two flat pieces and are not breakpoints.
func (s *Session) breakpoints(tEnd float64) []float64 {
	bps := s.bps[:0]
	for _, w := range s.srcW {
		bps = appendKinks(bps, w, tEnd)
	}
	for _, w := range s.prog.isrcW0 {
		bps = appendKinks(bps, w, tEnd)
	}
	slices.Sort(bps)
	s.bps = append(slices.Compact(bps), tEnd)
	return s.bps
}

// appendKinks appends the knots of w in (0, tEnd) where its slope
// changes. Outside its knots a waveform holds its end values, so the
// slope is zero before the first knot and after the last.
func appendKinks(dst []float64, w *wave.Waveform, tEnd float64) []float64 {
	prev := 0.0
	for i, t := range w.T {
		next := 0.0
		if i+1 < len(w.T) {
			next = (w.V[i+1] - w.V[i]) / (w.T[i+1] - t)
		}
		if next != prev && t > 0 && t < tEnd {
			dst = append(dst, t)
		}
		prev = next
	}
	return dst
}

// startSwing records every capacitor's branch voltage at the operating
// point x and zeroes its swing, at the start of an adaptive run.
func (s *Session) startSwing(x []float64) {
	nc := len(s.prog.caps) + len(s.prog.nlcaps)
	if cap(s.swing) < nc {
		s.u0 = make([]float64, nc)
		s.swing = make([]float64, nc)
	}
	s.u0, s.swing = s.u0[:nc], s.swing[:nc]
	for i := range s.u0 {
		s.u0[i] = s.branchV(i, x)
	}
	clear(s.swing)
}

// lteSwing folds the accepted solution x into every capacitor's largest
// deviation from its operating-point branch voltage in the run so far:
// the scale of lteRel.
func (s *Session) lteSwing(x []float64) {
	for i, u0 := range s.u0 {
		s.swing[i] = max(s.swing[i], math.Abs(s.branchV(i, x)-u0))
	}
}

// branchV returns the branch voltage of capacitor i at x, numbering the
// linear capacitors first and the NLMOS ones after them.
func (s *Session) branchV(i int, x []float64) float64 {
	if i < len(s.prog.caps) {
		cp := s.prog.caps[i]
		return vIdx(x, cp.a) - vIdx(x, cp.b)
	}
	nc := &s.prog.nlcaps[i-len(s.prog.caps)]
	return vIdx(x, nc.a) - vIdx(x, nc.b)
}

// lteRatio estimates the local truncation error of the trapezoidal step of
// length h that produced x, from x and the three accepted solutions of the
// history ring (the predictor's seed never enters), and returns the
// largest ratio of a capacitor's error to its bound. The error is measured
// on charge: LTE = h³/12·q‴ with q‴ ≈ 6·q[t₀,t₁,t₂,t₃], the third
// divided difference over the four points, and it is expressed in volts of
// the capacitor's own capacitance — C·v for a linear capacitor, so its
// branch voltage's own error, and the closed-form Q(u) over C(u) for an
// NLMOS one.
func (s *Session) lteRatio(x []float64, h float64) float64 {
	a, b := s.hHist[1], s.hHist[0] // x2 → x1, x1 → x0
	x0, x1, x2 := s.xHist[0], s.xHist[1], s.xHist[2]
	dd3 := func(q0, q1, q2, qn float64) float64 {
		d1, d2, d3 := (q1-q2)/a, (q0-q1)/b, (qn-q0)/h
		return ((d3-d2)/(b+h) - (d2-d1)/(a+b)) / (a + b + h)
	}
	scale := h * h * h / 2
	nl := len(s.prog.caps)
	worst := 0.0
	for i := range s.u0 {
		var e float64
		if i < nl {
			if s.capC[i] == 0 {
				continue
			}
			e = scale * math.Abs(dd3(s.branchV(i, x0), s.branchV(i, x1), s.branchV(i, x2), s.branchV(i, x)))
		} else {
			cp := s.prog.nlcaps[i-nl].cp
			q := func(v []float64) float64 { return cp.Charge(s.branchV(i, v)) }
			c, _ := cp.Eval(s.branchV(i, x))
			e = scale * math.Abs(dd3(q(x0), q(x1), q(x2), q(x))) / c
		}
		worst = max(worst, e/(lteTol+lteRel*s.swing[i]))
	}
	return worst
}

package core

import (
	"fmt"
	"math"
	"slices"

	"stanoise/internal/charlib"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/wave"
)

// peakSearch is what the peak-only runs of one alignment search share
// (DESIGN.md §29): the stop certificate's geometry of the model on the
// search's step, the engine plan of the last run, and, while the search
// probes, two trace buffers. best holds the trace of the best offset
// vector so far, and each probe resumes from it and records into spare;
// the search swaps the two when a probe becomes best. A peakSearch
// belongs to one search on one goroutine, and it is dropped with it.
type peakSearch struct {
	geo         *tailGeometry
	plan        *enginePlan
	best, spare *engineTrace
}

// newPeakSearch opens the shared state of a search on red at step h.
// Its runs record no trace until the search sets best and spare.
func newPeakSearch(red *mor.Reduced, h float64) *peakSearch {
	return &peakSearch{geo: newTailGeometry(red, h)}
}

// planFor returns the plan of a run of sources on red at step h (perm,
// pn and slope as runEngine orders them): the last run's when its key
// matches bit for bit, a new one, which the search keeps, when not.
func (s *peakSearch) planFor(red *mor.Reduced, h float64, sources []PortSource, v0 []float64, perm []int, pn int, slope []float64) (*enginePlan, error) {
	if pl := s.plan; pl != nil && pl.matches(red, h, sources, v0, perm, pn, slope) {
		return pl, nil
	}
	pl := &enginePlan{v0: slices.Clone(v0), miller: make([]float64, pn)}
	for jj := range pn {
		pl.miller[jj] = millerC(sources[perm[jj]])
	}
	if err := pl.build(red, h, sources, perm, pn, slope); err != nil {
		return nil, err
	}
	s.plan = pl
	return pl, nil
}

// enginePlan is runEngine's per-run set-up that a run's sources decide
// only through its key: the reduced model, the step, the port order perm
// (non-linear ports first, pn of them), the linear ports' slopes, the
// non-linear ports' Miller caps and the quiet levels V0. It holds the
// port rows bt, the step matrix A1′ and history matrix A2, prop = A1′⁻¹A2,
// zt = (A1′⁻¹B)ᵀ and m = B_NᵀZ_N, the certificate's per-plan round-off
// terms once a certified run has computed them, and the settled state of
// the last settled laws a certified run on it had. A search keeps its
// last plan (peakSearch.planFor); a waveform run builds its own.
type enginePlan struct {
	red    *mor.Reduced
	h      float64
	perm   []int
	pn     int
	slope  []float64 // every port's ∂i/∂v at t = 0, perm order; the key reads the linear ones
	miller []float64 // the key's Miller caps, perm order; nil outside a search
	v0     []float64 // the key's quiet levels, port order; nil outside a search

	// The matrices are held by value, so a waveform run's plan, a stack
	// value, puts only their elements on the heap.
	bt, a1, a2, prop, zt, m linalg.Matrix

	// The certificate's round-off terms of the stored solves, set on first
	// use (residuals).
	certDone    bool
	cX, cI, a1F float64
	// The certificate's settled state for the settled laws laws
	// (newTailBound): x*, its port currents (port order) and residual f(x*).
	laws          []settledLaw
	xs, iota, res []float64
}

// build fills the plan's matrices for sources on red at step h. The step
// matrix A1′ = 2Cr/h + Gr − B_L·diag(g_L)·B_Lᵀ carries the linear ports'
// slopes and A2 = 2Cr/h − Gr is the history matrix: prop = A1′⁻¹A2
// carries the state across a step, zt = (A1′⁻¹B)ᵀ maps port currents into
// the state, and m = B_NᵀZ_N is the non-linear ports' impedance of one
// step. A VCCS port's Miller capacitor C adds (2C/h)·b·bᵀ to both A1′ and
// A2, b its row of bt (DESIGN.md §28).
func (pl *enginePlan) build(red *mor.Reduced, h float64, sources []PortSource, perm []int, pn int, slope []float64) error {
	p, q := len(perm), red.Q
	pl.red, pl.h, pl.perm, pl.pn, pl.slope = red, h, perm, pn, slope
	bt := linalg.NewMatrix(p, q)
	for jj, j := range perm {
		for a := 0; a < q; a++ {
			bt.Set(jj, a, red.B.At(a, j))
		}
	}
	a1 := red.Cr.Clone()
	a1.Scale(2 / h)
	a1.AddScaled(1, red.Gr)
	for jj := pn; jj < p; jj++ {
		b := row(bt, jj)
		for a, ba := range b {
			linalg.AxpyVec(-slope[jj]*ba, b, row(a1, a))
		}
	}
	a2 := red.Cr.Clone()
	a2.Scale(2 / h)
	a2.AddScaled(-1, red.Gr)
	for jj := range pn {
		if c := millerC(sources[perm[jj]]); c != 0 {
			g, b := 2*c/h, row(bt, jj)
			for a, ba := range b {
				linalg.AxpyVec(g*ba, b, row(a1, a))
				linalg.AxpyVec(g*ba, b, row(a2, a))
			}
		}
	}
	lu, err := linalg.Factor(a1)
	if err != nil {
		return fmt.Errorf("core: singular macromodel system matrix: %w", err)
	}
	prop := lu.SolveMatrix(a2)
	zt := lu.SolveMatrix(bt.Transpose()).Transpose()
	m := linalg.NewMatrix(pn, pn)
	for a := 0; a < pn; a++ {
		for b := 0; b < pn; b++ {
			m.Set(a, b, linalg.Dot(row(bt, a), row(zt, b)))
		}
	}
	pl.bt, pl.a1, pl.a2, pl.prop, pl.zt, pl.m = *bt, *a1, *a2, *prop, *zt, *m
	return nil
}

// matches reports whether a run of sources with this key would build
// exactly pl: the same model and step by identity and bits, the same
// port order, and the same linear slopes, Miller caps and V0 bits.
func (pl *enginePlan) matches(red *mor.Reduced, h float64, sources []PortSource, v0 []float64, perm []int, pn int, slope []float64) bool {
	if pl.red != red || !sameBits(pl.h, h) || pl.pn != pn || !slices.Equal(pl.perm, perm) ||
		!slices.EqualFunc(pl.v0, v0, sameBits) {
		return false
	}
	for jj, j := range perm {
		if jj < pn && !sameBits(pl.miller[jj], millerC(sources[j])) || jj >= pn && !sameBits(pl.slope[jj], slope[jj]) {
			return false
		}
	}
	return true
}

// residuals returns the certificate's round-off terms of the plan's
// stored solves: cX and cI bound the per-unit error of a step's state
// and current terms, from the solve residuals A1′·prop − A2 and
// A1′·Z − B and the rounding of A1′, A2 and each step's products
// (newTailBound), and a1F is ‖A1′‖_F. bF is ‖B‖_F.
func (pl *enginePlan) residuals(bF float64) (cX, cI, a1F float64) {
	if !pl.certDone {
		q, p := pl.red.Q, len(pl.perm)
		a1, a2, prop, zt := &pl.a1, &pl.a2, &pl.prop, &pl.zt
		a1F, a2F, propF, ztF := frob(a1), frob(a2), frob(prop), frob(zt)
		eP := residualNorm(a1, prop, a2) + gamma(q+1)*(a1F*propF+a2F)
		eZ := residualNorm(a1, zt.Transpose(), pl.bt.Transpose()) + gamma(q+1)*(a1F*ztF+bF)
		pl.cX = eP + gamma(q+p+3)*(a1F*(propF+1)+a2F)
		pl.cI = eZ + gamma(q+p+3)*(a1F*ztF+bF) + gamma(4)*bF
		pl.a1F, pl.certDone = a1F, true
	}
	return pl.cX, pl.cI, pl.a1F
}

// settledLaw is one port's law from the last source knot on, as the
// plan's settled-state cache compares them: the port's kind (1 Thevenin,
// 2 holding, 3 VCCS; an open port is the zero law), its load curve, and
// the bits of its two settled parameters.
type settledLaw struct {
	kind int
	lc   *charlib.LoadCurve
	u, w uint64
}

// millerC is the Miller capacitor of a VCCS port, 0 for any other source.
func millerC(s PortSource) float64 {
	if vp, ok := s.(*VCCSPort); ok {
		return vp.MillerC
	}
	return 0
}

// engineTrace is the record of a peak-only run's accepted steps that a
// later run on the same plan resumes from (DESIGN.md §29). Row k−1 holds
// the state after step k: x, the port currents iPrev and voltages y (perm
// order), and the peak watch's peak, peak time and bad flag. It covers
// the steps with t ≤ until, the run's latest first source knot: a run
// that differs from this one agrees with it no further.
type engineTrace struct {
	plan      *enginePlan
	sources   []PortSource
	port      int
	quiet     float64
	maxNewton int
	until     float64
	rows      []float64
}

// resume readies tr to record a peak-only run of sources on plan pl
// watched by pw, and, when from was recorded under the same plan, watch
// and Newton cap, resumes the run from it: it copies from's rows up to
// k_d, the last step at which both runs have evaluated every port law at
// identical arguments (agreeUntil), restores the state and the watch of
// step k_d into x, iPrev, y and pw, and returns k_d, or 0 for a run that
// starts afresh. The run's steps 1…k_d would repeat from's arithmetic bit
// for bit. n is the run's grid steps. tr and from may be the same buffer.
func (tr *engineTrace) resume(pl *enginePlan, from *engineTrace, sources []PortSource, pw *peakWatch, maxNewton, n int, x, iPrev, y []float64) int {
	q, p := pl.red.Q, len(sources)
	stride := q + 2*p + 3
	kd := 0
	if from != nil && from.plan == pl && from.port == pw.port && sameBits(from.quiet, pw.quiet) && from.maxNewton == maxNewton {
		kd = min(len(from.rows)/stride, n)
		until := agreeUntil(sources, from.sources)
		for kd > 0 && !(float64(kd)*pl.h <= until) {
			kd--
		}
	}
	var rows []float64
	if kd > 0 {
		rows = from.rows[:kd*stride]
		r := rows[(kd-1)*stride:]
		copy(x, r[:q])
		copy(iPrev, r[q:q+p])
		copy(y, r[q+p:q+2*p])
		pw.peak, pw.tPeak, pw.bad = r[q+2*p], r[q+2*p+1], r[q+2*p+2] != 0
	}
	tr.rows = append(tr.rows[:0], rows...)
	tr.plan, tr.sources, tr.port, tr.quiet, tr.maxNewton = pl, sources, pw.port, pw.quiet, maxNewton
	tr.until = latestFirstKnot(sources)
	return kd
}

// add records the state after an accepted step.
func (tr *engineTrace) add(x, iPrev, y []float64, pw *peakWatch) {
	bad := 0.0
	if pw.bad {
		bad = 1
	}
	tr.rows = append(append(append(append(tr.rows, x...), iPrev...), y...), pw.peak, pw.tPeak, bad)
}

// agreeUntil returns a time up to which engine runs on the port sources a
// and b evaluate every port law identically, bit for bit, at every
// voltage: +Inf when each port's law is the same, bitwise; for a
// TheveninPort pair with equal RTh and a VCCSPort pair with the same load
// curve and MillerC whose waveforms differ but start at the same V[0],
// the earlier of the two first knots, since wave.At returns V[0] exactly
// up to the first knot; and −Inf for any other difference, a
// caller-defined source included.
func agreeUntil(a, b []PortSource) float64 {
	if len(a) != len(b) {
		return math.Inf(-1)
	}
	until := math.Inf(1)
	for j := range a {
		until = math.Min(until, agreePort(a[j], b[j]))
	}
	return until
}

// agreePort is agreeUntil for one port.
func agreePort(a, b PortSource) float64 {
	switch a := a.(type) {
	case OpenPort:
		if _, ok := b.(OpenPort); ok {
			return math.Inf(1)
		}
	case *HoldingPort:
		if b, ok := b.(*HoldingPort); ok && sameBits(a.G, b.G) && sameBits(a.V0, b.V0) {
			return math.Inf(1)
		}
	case *TheveninPort:
		if b, ok := b.(*TheveninPort); ok && sameBits(a.RTh, b.RTh) {
			return agreeWave(a.W, b.W)
		}
	case *VCCSPort:
		if b, ok := b.(*VCCSPort); ok && a.LC == b.LC && sameBits(a.MillerC, b.MillerC) {
			return agreeWave(a.Vin, b.Vin)
		}
	}
	return math.Inf(-1)
}

// agreeWave returns +Inf for two bitwise-identical waveforms, the earlier
// first knot for two that start at the same V[0], and −Inf otherwise.
func agreeWave(a, b *wave.Waveform) float64 {
	if slices.EqualFunc(a.T, b.T, sameBits) && slices.EqualFunc(a.V, b.V, sameBits) {
		return math.Inf(1)
	}
	if sameBits(a.V[0], b.V[0]) {
		return math.Min(a.T[0], b.T[0])
	}
	return math.Inf(-1)
}

// latestFirstKnot is the latest first knot of the sources' waveforms: a
// run that differs from one on sources agrees with it no further
// (agreeUntil), so a trace records no step after it.
func latestFirstKnot(sources []PortSource) float64 {
	t := math.Inf(-1)
	for _, s := range sources {
		switch s := s.(type) {
		case *TheveninPort:
			t = math.Max(t, s.W.T[0])
		case *VCCSPort:
			t = math.Max(t, s.Vin.T[0])
		}
	}
	return t
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

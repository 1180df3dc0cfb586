package core

import (
	"math"
	"slices"

	"stanoise/internal/linalg"
	"stanoise/internal/mor"
)

// peakWatch follows one port's largest deviation from its quiet level over
// a run, for the runs whose caller reads nothing else: the alignment
// search's probes and its per-aggressor timing runs. It keeps
// wave.MeasureNoise's arithmetic sample for sample — |v − quiet| on the
// recorded v0 + y, a strict > so the first peak time stays — and, like
// MeasureNoise, reads a run with a non-finite sample or quiet level as no
// glitch.
type peakWatch struct {
	port        int // watched port, in the caller's port order
	quiet       float64
	peak, tPeak float64
	bad         bool // a non-finite sample was recorded

	// search, when non-nil, is the state the runs of one alignment search
	// share (peakSearch).
	search *peakSearch

	// inspect, when non-nil, is handed the certificate's bound at every
	// settled step of a run that then never stops. Test hook.
	inspect func(k int, bound float64)
}

// observe records the sample v at time t and reports whether it raised the
// running peak.
func (w *peakWatch) observe(t, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.bad = true
		return false
	}
	if d := math.Abs(v - w.quiet); d > w.peak {
		w.peak, w.tPeak = d, t
		return true
	}
	return false
}

// result returns the run's peak and peak time as wave.MeasureNoise reads
// them off the recorded waveform.
func (w *peakWatch) result() (peak, tPeak float64) {
	if w.bad || math.IsNaN(w.quiet) || math.IsInf(w.quiet, 0) {
		return 0, 0
	}
	return w.peak, w.tPeak
}

// live reports whether the running peak can still be certified final: a
// run that recorded a non-finite sample reads as no glitch and must go to
// TStop, where the full run may end in an error.
func (w *peakWatch) live() bool { return !w.bad && w.peak > 0 }

// tailBound is the certificate of DESIGN.md §26 for one engine run. From
// the last knot te of every source waveform on, each port law is
// time-invariant and the engine step is the trapezoidal rule on
// Cr·ẋ = f(x) = −Gr·x + B·i(V0 + Bᵀx). With Cs = L·Lᵀ the symmetric part of
// Cr, U_k = x_k − (h/2)·Cs⁻¹·f(x_k) obeys the implicit midpoint rule, and
// when every port current is non-increasing in its own voltage and
// sym(Gr) ⪰ 0, ‖U_k − x*‖_Cs never grows, x* the settled state. So for
// every k ≥ K
//
//	|y_k| ≤ |y*| + κ·g^(N+2)·(‖U_K − x*‖_Cs + N·ν),  κ = ‖L⁻¹·b‖₂,
//
// with N the steps left, b the watched port's column of B, g ≥ 1 the
// per-step growth the round-off asymmetry and indefiniteness of Cr and Gr
// allow, and ν a per-step bound on how far the engine's accepted state
// departs from an exact trapezoidal step (Newton tolerance and round-off).
// A run stops once that bound is strictly below its running peak.
type tailBound struct {
	geo   *tailGeometry
	perm  []int     // engine port order
	te    float64   // last source knot: the laws are settled at t ≥ te
	kappa float64   // κ of the watched port, inflated by its evaluation error
	ystar float64   // |y*| plus |V0 − quiet| and their round-off
	ts    []float64 // Lᵀx*
	u     []float64 // scratch
	tsn   float64   // ‖Lᵀ‖·‖x*‖, for the evaluation error of ‖U_K − x*‖

	// ν = nu0 + nu1·peak: the per-step departure grows with the state the
	// run may still visit, which the stop condition itself bounds by peak.
	nu0, nu1 float64
	quiet    float64
}

// tailGeometry is the part of the certificate that depends on the reduced
// model and the step alone: the Cholesky factor L of Cs = sym(Cr), the map
// to U-space, every port's κ_j = ‖L⁻¹b_j‖₂ and the growth g. A search
// computes it once for all its peak-only runs on one model (peakSearch);
// ok is false when Cs has no Cholesky factor or g is out of range, and
// every run on the model then goes to TStop.
type tailGeometry struct {
	red *mor.Reduced
	h   float64
	ok  bool

	t   *linalg.Matrix // Lᵀ + (h/2)·L⁻¹Gr: Lᵀ(U − x*) = t·x − Σ_j ι_j·lb_j − Lᵀx*
	lb  *linalg.Matrix // row j: (h/2)·L⁻¹b_j, port order
	kap []float64      // κ_j, port order
	l   *linalg.Matrix

	g       float64 // per-step growth of ‖U − x*‖_Cs
	eta     float64 // relative error of every L⁻¹ product
	lF, liF float64 // ‖L‖_F, ‖L⁻¹‖_F
	tn, tbn float64 // ‖t‖_F and ‖lb‖_F bounds, for the evaluation error
	grF, bF float64
}

// newTailGeometry builds the geometry of red on the step h.
func newTailGeometry(red *mor.Reduced, h float64) *tailGeometry {
	geo := &tailGeometry{red: red, h: h}
	q, p := red.Q, len(red.Ports)
	cs := linalg.NewMatrix(q, q)
	ca := 0.0 // ‖(Cr − Crᵀ)/2‖_F
	gs := linalg.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			cab, cba := red.Cr.At(a, b), red.Cr.At(b, a)
			cs.Set(a, b, 0.5*(cab+cba))
			ca += 0.25 * (cab - cba) * (cab - cba)
			gs.Set(a, b, 0.5*(red.Gr.At(a, b)+red.Gr.At(b, a)))
		}
	}
	ca = math.Sqrt(ca)
	l, ok := cholesky(cs)
	if !ok {
		return geo
	}
	li := lowerInverse(l)
	lF, liF := frob(l), frob(li)
	li2 := liF * liF // ≥ ‖L⁻¹·M·L⁻ᵀ‖₂/‖M‖_F for every M
	cL := lF * liF   // ≥ cond₂(L): the accuracy of every L⁻¹ product
	eta := gamma(2*q+p+2) * (2 + cL)

	// α bounds ‖L⁻¹(Cr − L·Lᵀ)L⁻ᵀ‖₂: the asymmetry of Cr plus the backward
	// error of the Cholesky factor.
	alpha := li2 * (ca + gamma(q+1)*lF*lF) * (1 + eta)
	// β bounds the negative part of L⁻¹·sym(Gr)·L⁻ᵀ: a Cholesky factor of
	// sym(Gr) + τ·Cs proves it ≥ −τ, up to that factor's backward error.
	gsF, csF := frob(gs), frob(cs)
	beta := -1.0
	if gsF == 0 {
		beta = 0
	}
	for j, tau := 0, gamma(q+1)*gsF*li2; beta < 0 && j < 24; j, tau = j+1, tau*4 {
		shifted := gs.Clone()
		shifted.AddScaled(tau, cs)
		if r, ok := cholesky(shifted); ok {
			rF := frob(r)
			beta = tau + li2*(gamma(q+1)*rF*rF+2*gamma(1)*(gsF+tau*csF))*(1+eta)
		}
	}
	if !(beta >= 0) || !(h*beta <= 1e-3) || !(alpha <= 1e-6) {
		return geo
	}
	g1 := 1 / math.Sqrt(1-2*h*beta)
	geo.g = g1 * (1 + alpha) / (1 - alpha*g1)

	// t = Lᵀ + (h/2)·L⁻¹Gr, and per port (h/2)·L⁻¹b_j and κ_j.
	geo.t = linalg.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			s := l.At(b, a)
			for c := 0; c <= a; c++ {
				s += h / 2 * li.At(a, c) * red.Gr.At(c, b)
			}
			geo.t.Set(a, b, s)
		}
	}
	geo.lb = linalg.NewMatrix(p, q)
	geo.kap = make([]float64, p)
	bcol := make([]float64, q)
	for j := 0; j < p; j++ {
		for a := 0; a < q; a++ {
			bcol[a] = red.B.At(a, j)
		}
		lb := row(geo.lb, j)
		copy(lb, bcol)
		lowerSolveInto(l, lb)
		geo.kap[j] = norm2(lb)
		linalg.ScaleVec(h/2, lb)
	}
	geo.l, geo.eta, geo.lF, geo.liF = l, eta, lF, liF
	geo.grF, geo.bF = frob(red.Gr), frob(red.B)
	geo.tn = lF + h/2*liF*geo.grF
	geo.tbn = h / 2 * liF * geo.bF
	geo.ok = finite(geo.g) && finite(geo.tn) && finite(geo.tbn)
	return geo
}

// newTailBound builds the certificate of a run, or returns nil when one of
// its preconditions fails — the run then goes to TStop as it always did.
// The arguments are runEngine's per-run set-up: the geometry of its model
// on its step, its plan (the port order perm, non-linear ports first, pn
// of them; the port-incidence rows bt in perm order; the step matrix
// A1′, the history matrix A2, prop = A1′⁻¹A2, zt = (A1′⁻¹B)ᵀ and
// m = B_NᵀZ_N), the sources and quiet levels in port order, the watched
// port wj (perm index) and its quiet level, and the n steps of the grid.
// The plan keeps the settled state of the run's settled laws, and the next
// run with the same laws reuses it.
func newTailBound(geo *tailGeometry, pl *enginePlan, sources []PortSource, v0 []float64, wj int, quiet float64, n int) *tailBound {
	red, h := geo.red, geo.h
	q, p := red.Q, len(sources)
	perm, pn, bt, zt, m := pl.perm, pl.pn, &pl.bt, &pl.zt, &pl.m
	if !geo.ok || pn > 1 {
		return nil
	}
	// The closed list of port laws the proof covers, their settled forms,
	// and the last knot.
	te := 0.0
	var sMax, iMax float64 // steepest slope and largest current of the VCCS row
	laws := make([]settledLaw, len(sources))
	for j, s := range sources {
		switch s := s.(type) {
		case OpenPort:
		case *TheveninPort:
			if !(s.RTh > 0) || !finite(s.W.V[len(s.W.V)-1]) {
				return nil
			}
			te = math.Max(te, s.W.End())
			laws[j] = settledLaw{kind: 1, u: math.Float64bits(s.W.V[len(s.W.V)-1]), w: math.Float64bits(s.RTh)}
		case *HoldingPort:
			if !(s.G >= 0) || math.IsInf(s.G, 0) || !finite(s.V0) {
				return nil
			}
			laws[j] = settledLaw{kind: 2, u: math.Float64bits(s.G), w: math.Float64bits(s.V0)}
		case *VCCSPort:
			// A settled Miller capacitor is a grounded one at the port,
			// outside the geometry of red.Cr (DESIGN.md §28).
			if s.MillerC != 0 {
				return nil
			}
			var ok bool
			if sMax, iMax, ok = settledRow(s); !ok {
				return nil
			}
			te = math.Max(te, s.Vin.End())
			laws[j] = settledLaw{kind: 3, lc: s.LC, u: math.Float64bits(s.Vin.V[len(s.Vin.V)-1])}
		default:
			return nil
		}
	}
	if !(te < float64(n)*h) {
		return nil
	}
	// Under m·s_max ≤ ½ the scalar Newton of every settled step contracts
	// by at least ½ per iteration from any start, so a skipped step can
	// neither fail nor leave an error the full run would raise.
	if pn == 1 && !(m.Data[0]*sMax <= 0.5) {
		return nil
	}

	// The settled state x* and its residual r = f(x*), a function of the
	// settled laws and V0 alone: the probes of one search share them and
	// solve them once, and a run with other laws starts from the last x*.
	if pl.xs == nil || !slices.Equal(laws, pl.laws) {
		xs, is, r, ok := settledState(red, sources, v0, te, pl.xs)
		if !ok {
			return nil
		}
		pl.laws, pl.xs, pl.iota, pl.res = laws, xs, is, r
	}
	xs, is, r := pl.xs, pl.iota, pl.res
	xsN, isN := norm2(xs), norm2(is)
	eta, liF, bF := geo.eta, geo.liF, geo.bF

	tb := &tailBound{geo: geo, perm: perm, te: te, quiet: quiet}
	kappa := geo.kap[perm[wj]] * (1 + eta)
	if !(kappa > 0) || !finite(kappa) {
		return nil
	}
	tb.kappa = kappa
	bw := row(bt, wj)
	bwN := norm2(bw)
	tb.ystar = math.Abs(linalg.Dot(bw, xs)) + gamma(q)*bwN*xsN + math.Abs(v0[perm[wj]]-quiet)
	tb.ts = make([]float64, q)
	for a := 0; a < q; a++ {
		for c := a; c < q; c++ {
			tb.ts[a] += geo.l.At(c, a) * xs[c]
		}
	}
	tb.u = make([]float64, q)
	tb.tsn = geo.lF * xsN

	// The state a continued run may still visit: ‖x − x*‖_Cs ≤ peak/κ, so
	// ‖x‖₂ ≤ ‖x*‖₂ + ‖L⁻¹‖·peak/κ, and each linear port current is within
	// |g_j|·κ_j·peak/κ of its settled value; the VCCS row bounds its own.
	x0, x1 := xsN, liF/kappa
	var i0v, i1v float64 // ‖ι‖₂ ≤ i0v + i1v·peak, by the triangle inequality
	for jj, j := range perm {
		if jj < pn {
			i0v += iMax * iMax
			continue
		}
		_, slope := sources[j].Current(te, v0[j])
		i0v += is[j] * is[j]
		i1v += (slope * geo.kap[j] / kappa) * (slope * geo.kap[j] / kappa)
	}
	i0v, i1v = math.Sqrt(i0v), math.Sqrt(i1v)

	// Per-step departure in U-space, (h/2)·‖L⁻¹·residual‖₂ per term:
	// 1. the victim Newton stops at max |Δx| < engineTol, so its last
	//    update moved y by at most ‖b_N‖₁·engineTol and the accepted
	//    current misses the law by at most s_max times that; the law's own
	//    evaluation rounds by γ₈·i_max, and it is read at the Newton's y,
	//    which leaves b_Nᵀx by γ_{q+4}·‖b_N‖₂·‖x‖₂;
	// 2. the settled residual r = f(x*), a constant forcing of the scheme
	//    (h·‖L⁻¹r‖, r evaluated with its own rounding);
	// 3. round-off of the step: the solve residuals A1′·prop − A2 and
	//    A1′·Z − B of the stored factors, the rounding of A1′ and A2, and
	//    the rounding of each step's products and sums.
	var dn0, dn1 float64
	if pn == 1 {
		bN := row(bt, 0)
		bn1 := 0.0
		for _, v := range bN {
			bn1 += math.Abs(v)
		}
		bnN := norm2(bN)
		// The Newton current enters through b_N alone: (h/2)·κ_N per ampere.
		kN := h / 2 * geo.kap[perm[0]] * (1 + eta)
		dn0 = kN * (sMax*bn1*engineTol + gamma(8)*iMax + sMax*gamma(q+4)*bnN*x0)
		dn1 = kN * sMax * gamma(q+4) * bnN * x1
	}
	nuR := h * liF * (1 + eta) * (norm2(r) + gamma(q+p+1)*(geo.grF*xsN+bF*isN))
	cX, cI, a1F := pl.residuals(bF)
	zN := 0.0
	if pn == 1 {
		zN = norm2(row(zt, 0))
	}
	half := h / 2 * liF * (1 + eta)
	tb.nu0 = dn0 + nuR + half*(cX*x0+cI*i0v+gamma(q+p+3)*a1F*zN*iMax)
	tb.nu1 = dn1 + half*(cX*x1+cI*i1v)
	for _, v := range []float64{tb.nu0, tb.nu1, tb.ystar, tb.tsn} {
		if !finite(v) {
			return nil
		}
	}
	return tb
}

// bound returns a level no later sample's recorded |v0 + y − quiet| can
// exceed: x is the state and iota the port currents (perm order) of a
// settled step, left the steps still to run and peak the running peak
// (the stop condition bound < peak also bounds the state the rest of the
// run may visit, which the round-off terms of ν need).
func (tb *tailBound) bound(x, iota []float64, left int, peak float64) float64 {
	geo := tb.geo
	geo.t.MulVecInto(tb.u, x)
	for jj, ij := range iota {
		if ij != 0 {
			linalg.AxpyVec(-ij, row(geo.lb, tb.perm[jj]), tb.u)
		}
	}
	rk := 0.0
	for a, v := range tb.u {
		d := v - tb.ts[a]
		rk += d * d
	}
	rk = math.Sqrt(rk)
	rk += geo.eta * (rk + geo.tn*norm2(x) + geo.tbn*norm2(iota) + tb.tsn)
	nl := float64(left)
	b := tb.ystar + tb.kappa*math.Pow(geo.g, nl+2)*(rk+nl*(tb.nu0+tb.nu1*peak))
	// The recorded sample is fl(fl(V0 + y) − quiet), within 8u·(|quiet| + |y|) of y.
	return b + 8*gamma(1)*(math.Abs(tb.quiet)+b)
}

// tailCheckEvery is the cadence of the certificate on settled steps: a
// check costs about one step, and the peak is decided long before TStop.
const tailCheckEvery = 4

// gamma is the rounding constant γ_n = n·u/(1 − n·u) of an n-term float64
// computation.
func gamma(n int) float64 {
	const u = 0x1p-53
	return float64(n) * u / (1 - float64(n)*u)
}

// settledRow checks the load-curve row a VCCS port reads once its input
// has settled at the last knot of Vin: every current of the two table rows
// the bilinear interpolation blends is finite, and within each cell the
// slope Eval reports in vout is ≤ 0, so the settled law is non-increasing
// in the port voltage (flat beyond the grid). It returns the steepest slope
// magnitude and the largest current magnitude of those rows.
func settledRow(p *VCCSPort) (sMax, iMax float64, ok bool) {
	lc := p.LC
	vin := p.Vin.V[len(p.Vin.V)-1]
	if lc == nil || lc.NVin < 2 || lc.NVout < 2 || len(lc.I) != lc.NVin*lc.NVout || !finite(vin) {
		return 0, 0, false
	}
	// Eval's cell and weight along vin, op for op.
	dx := (lc.VinMax - lc.VinMin) / float64(lc.NVin-1)
	dy := (lc.VoutMax - lc.VoutMin) / float64(lc.NVout-1)
	if !(dx > 0) || !(dy > 0) || !finite(dx) || !finite(dy) {
		return 0, 0, false
	}
	fx := (vin - lc.VinMin) / dx
	ix := int(math.Floor(fx))
	ix = max(0, min(ix, lc.NVin-2))
	tx := min(max(fx-float64(ix), 0), 1)
	r0, r1 := lc.I[ix*lc.NVout:][:lc.NVout], lc.I[(ix+1)*lc.NVout:][:lc.NVout]
	for iy := range lc.NVout {
		for _, v := range []float64{r0[iy], r1[iy]} {
			if !finite(v) {
				return 0, 0, false
			}
			iMax = math.Max(iMax, math.Abs(v))
		}
		if iy == lc.NVout-1 {
			break
		}
		s := ((r0[iy+1]-r0[iy])*(1-tx) + (r1[iy+1]-r1[iy])*tx) / dy
		if !(s <= 0) || !finite(s) {
			return 0, 0, false
		}
		sMax = math.Max(sMax, -s)
	}
	return sMax, iMax, true
}

// settledState solves the settled DC equations f(x) = −Gr·x + B·i(te, V0 +
// Bᵀx) = 0 of the reduced model by Newton from guess (the quiet state when
// nil). It returns x*, the port currents there (port order) and the
// residual f(x*), or ok = false when a Jacobian is singular, an iterate is
// non-finite or 60 iterations do not converge. The certificate holds for
// whatever x* this returns: its residual is a term of the slack.
func settledState(red *mor.Reduced, sources []PortSource, v0 []float64, te float64, guess []float64) (x, iota, r []float64, ok bool) {
	q, p := red.Q, len(sources)
	x = make([]float64, q)
	copy(x, guess)
	iota = make([]float64, p)
	didv := make([]float64, p)
	r = make([]float64, q)
	jac := linalg.NewMatrix(q, q)
	eval := func() {
		red.Gr.MulVecInto(r, x)
		linalg.ScaleVec(-1, r)
		jac.CopyFrom(red.Gr)
		jac.Scale(-1)
		for j, s := range sources {
			y := 0.0
			for a := 0; a < q; a++ {
				y += red.B.At(a, j) * x[a]
			}
			iota[j], didv[j] = s.Current(te, v0[j]+y)
			for a := 0; a < q; a++ {
				ba := red.B.At(a, j)
				r[a] += ba * iota[j]
				for b := 0; b < q; b++ {
					jac.Add(a, b, ba*didv[j]*red.B.At(b, j))
				}
			}
		}
	}
	for it := 0; it < 60; it++ {
		eval()
		lu, err := linalg.Factor(jac)
		if err != nil {
			return nil, nil, nil, false
		}
		dx := lu.Solve(r)
		maxd, maxx := 0.0, 0.0
		for a := range x {
			x[a] -= dx[a]
			if !finite(x[a]) {
				return nil, nil, nil, false
			}
			maxd = math.Max(maxd, math.Abs(dx[a]))
			maxx = math.Max(maxx, math.Abs(x[a]))
		}
		if maxd <= 1e-13*math.Max(1, maxx) {
			eval()
			for _, v := range r {
				if !finite(v) {
					return nil, nil, nil, false
				}
			}
			return x, iota, r, true
		}
	}
	return nil, nil, nil, false
}

// cholesky returns the lower factor L of a symmetric positive definite a
// (a = L·Lᵀ), or ok = false at a pivot that is not positive and finite.
func cholesky(a *linalg.Matrix) (*linalg.Matrix, bool) {
	n := a.Rows
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if !(s > 0) || !finite(s) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, true
}

// lowerSolveInto overwrites x with L⁻¹x by forward substitution.
func lowerSolveInto(l *linalg.Matrix, x []float64) {
	for i := range x {
		li := row(l, i)
		s := x[i]
		for k, v := range li[:i] {
			s -= v * x[k]
		}
		x[i] = s / li[i]
	}
}

// lowerInverse returns L⁻¹, itself lower triangular.
func lowerInverse(l *linalg.Matrix) *linalg.Matrix {
	n := l.Rows
	inv := linalg.NewMatrix(n, n)
	e := make([]float64, n)
	for c := 0; c < n; c++ {
		clear(e)
		e[c] = 1
		lowerSolveInto(l, e)
		inv.SetCol(c, e)
	}
	return inv
}

// residualNorm returns ‖a·x − b‖_F as evaluated in float64.
func residualNorm(a, x, b *linalg.Matrix) float64 {
	s := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			d := -b.At(i, j)
			for k := 0; k < a.Cols; k++ {
				d += a.At(i, k) * x.At(k, j)
			}
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// frob returns the Frobenius norm of m.
func frob(m *linalg.Matrix) float64 { return norm2(m.Data) }

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(linalg.Dot(v, v)) }

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/circuit"
	"stanoise/internal/linalg"
	"stanoise/internal/wave"
)

// Session is the mutable run state for one compiled Program: preallocated
// MNA matrices, right-hand-side/solution vectors and an in-place LU
// workspace, plus the per-run parameters (source waveforms, capacitor
// values, initial-guess seeds). A characterisation sweep compiles its
// topology once, opens one Session, and then only mutates parameters
// between RunDC/RunTransient calls — no per-point circuit assembly, node
// resolution or matrix allocation.
//
// The Newton inner loop is allocation-free: the Jacobian is copied into
// reused buffers, factored in place, and solved into a preallocated
// update vector (asserted by TestNewtonLoopAllocFree). Every run fills a
// caller-owned result that does not alias session buffers, so it stays
// valid across further runs.
//
// A Session is not safe for concurrent use; open one Session per
// goroutine (Programs are immutable and may be shared).
type Session struct {
	prog *Program
	dt   float64 // the fixed transient step (s)

	n, m, size int

	// base holds all voltage-independent, time-independent conductance
	// stamps: resistors, gmin, and the voltage-source incidence pattern.
	base *linalg.Matrix
	// stampedGmin is the gmin currently stamped into base; DC gmin
	// stepping temporarily restamps it.
	stampedGmin float64

	// Scratch buffers reused across runs and Newton iterations. lin is
	// allocated lazily on the first transient run; DC-only sessions (the
	// load-curve sweeps) never pay for it.
	lin *linalg.Matrix // transient system matrix: base + cap companions
	jac *linalg.Matrix
	lu  *linalg.LUWorkspace
	f   []float64
	rhs []float64
	b   []float64
	x   []float64
	dx  []float64

	// Mutable per-run parameters, seeded from the Program at creation.
	srcW []*wave.Waveform
	capC []float64

	// ownConst holds session-owned constant waveforms, one per voltage
	// source, lazily created by SetSourceDC and mutated in place on later
	// calls so a DC sweep point allocates nothing for its source values.
	ownConst []*wave.Waveform

	// Capacitor companion history (branch voltage and current).
	vPrev []float64
	iPrev []float64

	// Nonlinear-capacitor companion history: branch voltage, branch
	// current and the capacitance C(u) the current was computed with. The
	// charge-conserving companion form divides the history current by its
	// own capacitance (i_last/C_last, see assemble), so C must be carried
	// alongside i — recomputing it from vPrevNL would be wrong after a
	// parameter change and is why the NLNMOS discretization stores it.
	vPrevNL []float64
	iPrevNL []float64
	cPrevNL []float64
	// nlGeq is the active companion factor 2/h while a transient step
	// loop is running, and 0 outside it. assemble stamps the nonlinear caps
	// only when nlGeq > 0: at DC a capacitor is an open circuit and
	// contributes nothing, which keeps every DC solve — including the
	// transient operating point — exactly on the legacy arithmetic.
	nlGeq float64

	// Initial-guess seeds resolved to node indices.
	guesses []guessEntry

	// seed is the Newton seeding switch (see Seed).
	seed bool
	// Warm-start state: the last converged DC solution, used as the
	// Newton seed of the next solve while seeding is on.
	haveWarm bool
	xWarm    []float64

	// Predictor state: a ring of the last three converged timestep
	// solutions (xHist[0] newest) and the steps between them (hHist[0]
	// from xHist[1] to xHist[0]), allocated lazily on the first transient
	// run that seeds or estimates from them, so other sessions pay
	// nothing. A seed that fails to converge is re-solved from xHist[0],
	// the previous converged point.
	xHist [3][]float64
	hHist [2]float64

	// Adaptive-run state (RunTransientAdaptive), reused across runs: the
	// run's breakpoints, for every linear capacitor branch, then every
	// NLMOS capacitor, its operating-point voltage and its largest swing
	// from it so far, and whether each linear branch stamps in this run.
	bps       []float64
	u0, swing []float64
	live      []bool

	// lr holds the factored step loop's buffers (DESIGN.md §17), allocated
	// on the first transient run of a program whose shape takes the path;
	// the loop factors the step matrix into lu.
	lr *lowRankState

	// fs holds the free-node solve's buffers (DESIGN.md §32), nil for a
	// program outside its shape; tally counts how the dense Newton's
	// solves ran.
	fs    *freeState
	tally solveTally

	// forceDense keeps every solve on the dense Newton and its dense LU,
	// whatever the program's shape. Test hook: the factored-path and
	// free-node property tests run both paths on one topology and compare
	// the results.
	forceDense bool
	// failCorrections makes the next n rank-r corrections report a
	// singular K. Test hook for the dense re-solve of a failed step.
	failCorrections int

	// The transient run in progress, for the stop certificate: the
	// samples recorded so far after the operating point, the run's grid
	// steps, and whether it is adaptive. cert is the session's one
	// certificate (Certify), allocated on first use.
	runK        int
	runSteps    int
	runAdaptive bool
	cert        *Certificate

	// stats is the work this session has performed since it was opened —
	// the only place transistor-level work is counted (see Counters).
	stats Counters
}

// Stats snapshots the work the session has performed since it was opened:
// solves started, Newton iterations spent, and how the warm-start
// continuation and predictor behaved. Warm-start effectiveness is (cold
// NewtonIters − warm NewtonIters) over identical sweeps.
func (s *Session) Stats() Counters { return s.stats }

// publish folds the work done since before into the process-wide totals.
// Every public Run* entry point defers it exactly once, so failed and
// cancelled runs still count.
func (s *Session) publish(before Counters) { Record(s.stats.Sub(before)) }

type guessEntry struct {
	node int
	v    float64
}

// NewSession opens a Session against a compiled Program with the fixed
// transient step dt (s); a dt ≤ 0 selects 1 ps. A NaN or infinite dt is
// an *OptionsError on "Dt": it would pass every `<= 0` check and run a
// transient forever. The stop time is an argument of each run.
func NewSession(p *Program, dt float64) (*Session, error) {
	if math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, &OptionsError{Field: "Dt", Value: dt}
	}
	if dt <= 0 {
		dt = defaultDt
	}
	s := &Session{
		prog: p,
		dt:   dt,
		n:    p.n,
		m:    p.m,
		size: p.size,
	}
	s.base = linalg.NewMatrix(s.size, s.size)
	s.jac = linalg.NewMatrix(s.size, s.size)
	s.lu = linalg.NewLUWorkspace(s.size)
	s.f = make([]float64, s.size)
	s.rhs = make([]float64, s.size)
	s.b = make([]float64, s.size)
	s.x = make([]float64, s.size)
	s.dx = make([]float64, s.size)
	s.srcW = append([]*wave.Waveform(nil), p.srcW0...)
	s.capC = append([]float64(nil), p.capC0...)
	s.vPrev = make([]float64, len(p.caps))
	s.iPrev = make([]float64, len(p.caps))
	if len(p.nlcaps) > 0 {
		s.vPrevNL = make([]float64, len(p.nlcaps))
		s.iPrevNL = make([]float64, len(p.nlcaps))
		s.cPrevNL = make([]float64, len(p.nlcaps))
	}
	s.xWarm = make([]float64, s.size)
	if !p.floating && !p.twice {
		s.fs = newFreeState(p)
	}
	s.stampBase(gmin)
	return s, nil
}

// SetSource replaces the waveform of a voltage source for subsequent runs.
func (s *Session) SetSource(h SourceHandle, w *wave.Waveform) {
	if w == nil {
		panic("sim: SetSource with nil waveform")
	}
	s.srcW[h] = w
}

// SetSourceDC sets a voltage source to a constant value for subsequent
// runs — the per-point mutation of a DC characterisation sweep. The
// constant waveform is session-owned and reused across calls, so a sweep
// point allocates nothing here.
func (s *Session) SetSourceDC(h SourceHandle, v float64) {
	if s.ownConst == nil {
		s.ownConst = make([]*wave.Waveform, len(s.srcW))
	}
	if s.ownConst[h] == nil {
		s.ownConst[h] = wave.Constant(v)
	} else {
		s.ownConst[h].V[0] = v
	}
	s.srcW[h] = s.ownConst[h]
}

// Seed switches the Newton seeding of subsequent runs: the DC
// continuation of every DC solve (the operating-point solve at the start
// of every transient included) and the polynomial predictor of every
// transient step. A new session starts cold, because a seeded result can
// differ from a cold one in the last bits (Newton converges to the same
// root from a different seed, within tolerance rather than bitwise): the
// characterisation sweeps (charlib, nrc) switch seeding on, while golden
// transients, Thevenin fits and one-off solves keep the cold start.
//
// DC continuation: each solve seeds Newton from the previous converged DC
// solution instead of the cold initial guess — the classic continuation
// trick for characterisation sweeps, where neighbouring grid points have
// nearly identical operating points. Ground-referenced source nodes are
// re-pinned at their current values on top of the carried solution, so
// the seed satisfies the new boundary conditions exactly, and warm solves
// terminate on the standard small-undamped-update criterion (see newton),
// which together reduce a fine sweep to about one iteration per grid
// point. A warm-started solve that fails to converge falls back to the
// cold start (and then gmin stepping); Counters.WarmStarts and
// WarmFallbacks count both. Initial-guess seeds (SetGuess) only apply to
// cold starts; while a warm seed is available they are ignored by design.
// Switching seeding off discards the stored solution, so the next solve
// is cold again.
//
// Predictor: each timestep's Newton solve is seeded by extrapolating the
// previous converged timestep solutions instead of starting from the
// previous point alone: the first step keeps the previous-point seed, the
// second uses linear extrapolation (2·x₁ − x₀), and from the third on a
// second-order polynomial over the last three points (3·x₂ − 3·x₁ + x₀).
// On the smooth waveforms of glitch rigs the seed lands close enough to
// the solution that Newton needs measurably fewer iterations per step
// (TestPredictorCutsNewtonIterations asserts the floor). A predicted seed
// that fails to converge is re-solved from the previous converged point,
// so the predictor never costs robustness; Counters.PredictorSeeds and
// PredictorFallbacks count both.
//
// The linear fast path (see RunTransient) has no Newton iterations to
// seed, so a linear program runs it whether seeding is on or off.
func (s *Session) Seed(on bool) {
	s.seed = on
	if !on {
		s.haveWarm = false
	}
}

// MemoryBytes estimates the session's resident footprint: the dense
// matrices (base, Jacobian, the LU workspace buffer, and the transient
// system matrix once allocated) dominate at size² float64s each, plus the
// per-unknown vectors, the factored step loop's buffers and the free-node
// solve's. The estimate grows as the first runs allocate those buffers.
// Long-lived holders of many sessions — core.RigPool above all — use it
// to enforce byte-based retention bounds; it is an accounting estimate,
// not an exact heap measurement.
func (s *Session) MemoryBytes() int64 {
	sz := int64(s.size)
	matrices := int64(3) // base, jac, lu workspace buffer
	if s.lin != nil {
		matrices++
	}
	b := matrices * sz * sz * 8
	// f, rhs, b, x, dx, xWarm (+ pivot ints and small per-element slices).
	b += 6*sz*8 + sz*8
	b += int64(len(s.vPrev)+len(s.iPrev)) * 16
	b += int64(len(s.vPrevNL)) * 24 // vPrevNL + iPrevNL + cPrevNL
	if s.xHist[0] != nil {
		// Predictor history ring (3 vectors).
		b += 3 * sz * 8
	}
	b += int64(cap(s.bps)+cap(s.u0)+cap(s.swing))*8 + int64(cap(s.live))
	if s.lr != nil {
		b += s.lr.memoryBytes()
	}
	if s.fs != nil {
		b += s.fs.memoryBytes()
	}
	return b
}

// SetLoad replaces the value of a capacitor for subsequent runs — the
// per-point mutation of a load sweep. A zero value is legal and stamps
// nothing; negative or non-finite values are programming errors.
func (s *Session) SetLoad(h CapHandle, c float64) {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("sim: SetLoad with invalid capacitance %g", c))
	}
	s.capC[h] = c
}

// SetGuess sets the initial-guess voltage of a named node for subsequent
// cold DC solves, replacing any earlier guess for it. Seeding nodes near
// their quiet logic values both speeds convergence and selects the
// intended operating point. Unknown node names and ground are silently
// ignored; the value must be finite.
func (s *Session) SetGuess(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("sim: SetGuess(%q) with non-finite value %g", name, v))
	}
	id, ok := s.prog.ckt.LookupNode(name)
	if !ok || id == circuit.Ground {
		return
	}
	for i := range s.guesses {
		if s.guesses[i].node == int(id) {
			s.guesses[i].v = v
			return
		}
	}
	s.guesses = append(s.guesses, guessEntry{node: int(id), v: v})
}

// stampBase fills the linear, time-invariant part of the Jacobian, with
// conductance g from every node to ground.
func (s *Session) stampBase(g float64) {
	s.base.Zero()
	for i := 0; i < s.n; i++ {
		s.base.Add(i, i, g)
	}
	for _, r := range s.prog.res {
		s.stampConductance(s.base, r.a, r.b, r.g)
	}
	for k, v := range s.prog.vsrc {
		row := s.n + k
		if v.pos >= 0 {
			s.base.Add(v.pos, row, 1)
			s.base.Add(row, v.pos, 1)
		}
		if v.neg >= 0 {
			s.base.Add(v.neg, row, -1)
			s.base.Add(row, v.neg, -1)
		}
	}
	s.stampedGmin = g
}

func (s *Session) stampConductance(m *linalg.Matrix, a, b int, g float64) {
	if a >= 0 {
		m.Add(a, a, g)
	}
	if b >= 0 {
		m.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -g)
		m.Add(b, a, -g)
	}
}

// vIdx returns the voltage at unknown index i (ground is -1).
func vIdx(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// assemble builds the Jacobian and residual F(x) at the given Newton
// iterate. lin is the linear system matrix to start from (base for DC,
// base+cap companions for transients); b carries the time-dependent source
// and capacitor-history terms as "current injected" (so F = lin·x - b + nl).
func (s *Session) assemble(lin *linalg.Matrix, x, b []float64) {
	s.jac.CopyFrom(lin)
	s.residual(lin, x, b)
	s.stampDevices(x, &stampTarget{data: s.jac.Data, stride: s.size})
}

// residual sets s.f to the linear part of the Newton residual, lin·x − b.
func (s *Session) residual(lin *linalg.Matrix, x, b []float64) {
	lin.MulVecInto(s.f, x)
	for i := range s.f {
		s.f[i] -= b[i]
	}
}

// stampDevices adds the nonlinear device stamps at iterate x: currents to
// the residual s.f and conductances to jac — the dense Jacobian, or the
// factored loop's device block E_R (see stampTarget).
func (s *Session) stampDevices(x []float64, jac *stampTarget) {
	// MOSFETs.
	for i := range s.prog.mos {
		m := &s.prog.mos[i]
		vd, vg, vs := vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s)
		id, gd, gg, gs := m.p.Eval(vd, vg, vs)
		d, g, src := m.d, m.g, m.s
		// id is the current into the drain terminal, i.e. leaving node D.
		if d >= 0 {
			s.f[d] += id
			jac.add(d, d, gd)
			if g >= 0 {
				jac.add(d, g, gg)
			}
			if src >= 0 {
				jac.add(d, src, gs)
			}
		}
		if src >= 0 {
			s.f[src] -= id
			jac.add(src, src, -gs)
			if d >= 0 {
				jac.add(src, d, -gd)
			}
			if g >= 0 {
				jac.add(src, g, -gg)
			}
		}
	}
	// Nonlinear gate-charge capacitors: the charge-conserving companion
	// form of the NLMOS discretization, re-evaluated from the current
	// iterate on every assembly. With u = v(a) − v(b) and the trapezoidal
	// geq = 2/h:
	//
	//	i     = C(u)·(geq·(u − u_last) − i_last/C_last)
	//	di/du = C'(u)·(…) + C(u)·geq
	//
	// The history current is divided by the capacitance it was computed
	// with (C_last), not the current one — that is what makes the scheme
	// charge-conserving when C varies between steps (DESIGN.md §12).
	// Outside a transient step loop nlGeq is 0 and the caps stamp nothing:
	// open circuits at DC, exactly like the pre-stamped linear caps.
	if s.nlGeq > 0 && len(s.prog.nlcaps) > 0 {
		geq := s.nlGeq
		for i := range s.prog.nlcaps {
			nc := &s.prog.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, dc := nc.cp.Eval(u)
			rate := geq*(u-s.vPrevNL[i]) - s.iPrevNL[i]/s.cPrevNL[i]
			cur := c * rate
			g := dc*rate + c*geq
			a, bn := nc.a, nc.b
			if a >= 0 {
				s.f[a] += cur
				jac.add(a, a, g)
				if bn >= 0 {
					jac.add(a, bn, -g)
				}
			}
			if bn >= 0 {
				s.f[bn] -= cur
				jac.add(bn, bn, g)
				if a >= 0 {
					jac.add(bn, a, -g)
				}
			}
		}
		s.stats.NLStampEvals += int64(len(s.prog.nlcaps))
	}
	// Table VCCSs: current i injected into Out.
	for i := range s.prog.vccs {
		e := &s.prog.vccs[i]
		vc, vo := vIdx(x, e.ctrl), vIdx(x, e.out)
		cur, gc, gout := e.f.Eval(vc, vo)
		o, cn := e.out, e.ctrl
		if o >= 0 {
			s.f[o] -= cur
			jac.add(o, o, -gout)
			if cn >= 0 {
				jac.add(o, cn, -gc)
			}
		}
	}
}

// newton solves F(x) = 0 starting from x, modifying it in place. The loop
// body allocates nothing: the Jacobian, or only its node block
// (solveNewton), factors into the session's LU workspace, and the update
// solves into the preallocated dx buffer.
//
// relaxed selects the warm-start termination criterion (small undamped
// update, no residual verification); DC solves pass it in warm-start mode,
// transient timestep solves always use the strict dual criterion.
func (s *Session) newton(lin *linalg.Matrix, x, b []float64, relaxed bool) error {
	for it := 0; it < maxNewton; it++ {
		s.stats.NewtonIters++
		s.assemble(lin, x, b)
		if err := s.solveNewton(); err != nil {
			return fmt.Errorf("sim: singular Jacobian at Newton iteration %d: %w", it, err)
		}
		if s.update(x, relaxed) {
			return nil
		}
	}
	return ErrNoConvergence
}

// update is the tail every Newton iteration shares, dense or factored: it
// applies the update s.dx to x, damped, and reports whether the iteration
// converged against the residual s.f it was computed from.
func (s *Session) update(x []float64, relaxed bool) bool {
	dx := s.dx
	// Damping: bound the voltage update. A NaN component is kept in maxdv
	// (and below in maxf), so a non-finite update or residual never passes
	// the convergence test: the solve ends in ErrNoConvergence instead of
	// accepting a NaN iterate.
	maxdv := 0.0
	for i := 0; i < s.n; i++ {
		if a := math.Abs(dx[i]); a > maxdv || math.IsNaN(a) {
			maxdv = a
		}
	}
	scale := 1.0
	if maxdv > maxStep {
		scale = maxStep / maxdv
	}
	for i := range x {
		x[i] -= scale * dx[i]
	}
	if relaxed {
		// Warm-start termination: accept on a small undamped update. A
		// full Newton step (scale == 1) below VTol bounds the remaining
		// error quadratically — the linearised residual is solved exactly,
		// so what is left is O(curvature·dv²) — which makes the cold path's
		// extra residual-verification iteration redundant. This is what
		// turns a continuation sweep into one iteration per grid point; it
		// is confined to warm-mode DC solves (transient timesteps always
		// verify the residual), so the cold path stays bit-identical to the
		// legacy flow and warm transients differ from cold only through
		// their operating point.
		return maxdv*scale < vTol && scale == 1
	}
	maxf := 0.0
	for i := 0; i < s.n; i++ {
		if a := math.Abs(s.f[i]); a > maxf || math.IsNaN(a) {
			maxf = a
		}
	}
	return maxdv*scale < vTol && maxf < iTol*math.Max(1, float64(s.n))
}

// ensurePredictorBuffers lazily allocates the predictor history ring on
// the first transient run that reads it.
func (s *Session) ensurePredictorBuffers() {
	if s.xHist[0] != nil {
		return
	}
	for i := range s.xHist {
		s.xHist[i] = make([]float64, s.size)
	}
}

// pushHistory records a converged timestep solution, reached by a step of
// length h, in the predictor ring by pointer rotation (the oldest buffer
// is overwritten and becomes the newest), allocating nothing. nh is the
// current history depth; the new depth (capped at 3) is returned.
func (s *Session) pushHistory(x []float64, h float64, nh int) int {
	buf := s.xHist[2]
	s.xHist[2] = s.xHist[1]
	s.xHist[1] = s.xHist[0]
	copy(buf, x)
	s.xHist[0] = buf
	s.hHist[1] = s.hHist[0]
	s.hHist[0] = h
	if nh < 3 {
		nh++
	}
	return nh
}

// predictSeed overwrites x with the polynomial extrapolation of the
// history ring (x0 = xHist[0] newest) to a step of length h: linear over
// two points, second-order over three, the Lagrange forms on the ring's
// own steps. When those steps all equal h — every step of a fixed-grid
// run — the forms are the uniform ones, 2·x0 − x1 and 3·x0 − 3·x1 + x2,
// evaluated as such.
func (s *Session) predictSeed(x []float64, h float64, nh int) {
	x0, x1 := s.xHist[0], s.xHist[1]
	a, b := s.hHist[0], s.hHist[1]
	if nh >= 3 {
		x2 := s.xHist[2]
		if h == a && a == b {
			for i := range x {
				x[i] = 3*x0[i] - 3*x1[i] + x2[i]
			}
			return
		}
		c0 := (h + a) * (h + a + b) / (a * (a + b))
		c1 := -h * (h + a + b) / (a * b)
		c2 := h * (h + a) / ((a + b) * b)
		for i := range x {
			x[i] = c0*x0[i] + c1*x1[i] + c2*x2[i]
		}
		return
	}
	if h == a {
		for i := range x {
			x[i] = 2*x0[i] - x1[i]
		}
		return
	}
	r := h / a
	for i := range x {
		x[i] = x0[i] + r*(x0[i]-x1[i])
	}
}

// sourceRHS fills b with the independent-source terms at time t.
func (s *Session) sourceRHS(b []float64, t float64) {
	for i := range b {
		b[i] = 0
	}
	for k := range s.prog.vsrc {
		b[s.n+k] = s.srcW[k].At(t)
	}
	for k, is := range s.prog.isrc {
		if is.pos >= 0 {
			b[is.pos] += s.prog.isrcW0[k].At(t)
		}
		if is.neg >= 0 {
			b[is.neg] -= s.prog.isrcW0[k].At(t)
		}
	}
}

// initialGuess fills x with the DC starting point.
func (s *Session) initialGuess(x []float64) {
	for i := range x {
		x[i] = 0
	}
	// Held nodes start at their source's value; this lands the first
	// iterate close to the operating point for rail-connected nets.
	s.pinHeld(x)
	for _, g := range s.guesses {
		x[g.node] = g.v
	}
}

// pinHeld sets every held node of x to its source's value at t = 0.
func (s *Session) pinHeld(x []float64) {
	for i, h := range s.prog.held {
		if h.src >= 0 {
			x[i] = h.sign * s.srcW[h.src].At(0)
		}
	}
}

// solveStep solves one timestep from the seed in x: on the factored loop
// when the run takes it, else on the dense Newton. A step whose rank-r
// correction fails — a singular K or no convergence — is re-solved from
// the same seed on the dense Newton, so the factored loop never costs
// robustness. A linear program's step has no correction to fail.
func (s *Session) solveStep(factored bool, x, b []float64) error {
	if !factored {
		return s.newton(s.lin, x, b, false)
	}
	if len(s.prog.lr.rows) == 0 {
		return s.factoredNewton(s.lin, x, b)
	}
	copy(s.lr.seed, x)
	if s.factoredNewton(s.lin, x, b) == nil {
		return nil
	}
	s.stats.LowRankFallbacks++
	copy(x, s.lr.seed)
	err := s.newton(s.lin, x, b, false)
	// The dense Newton factored its Jacobians over Lin's factor in s.lu;
	// restore it for the next step. Lin factored at the start of the run,
	// and factoring is deterministic, so it factors again.
	_ = s.lu.Factor(s.lin)
	return err
}

// RunDC computes the operating point at t = 0 with the session's current
// parameters into a caller-owned result. When plain Newton fails it falls
// back to gmin stepping: solving a sequence of progressively less
// regularised systems, warm-starting each from the last.
//
// The result's backing storage is reused: after the first call on a given
// DCResult, a sweep loop of SetSourceDC + RunDC + SourceCurrent performs
// zero allocations per grid point (asserted by TestRunDCIntoAllocFree). On
// error the result is left untouched. The filled result does not alias
// session buffers and stays valid across further runs.
func (s *Session) RunDC(res *DCResult) error {
	if res == nil {
		panic("sim: RunDC with nil result")
	}
	defer s.publish(s.stats)
	if err := s.solveDC(false); err != nil {
		return err
	}
	res.c = s.prog.ckt
	res.n = s.n
	if cap(res.X) < s.size {
		res.X = make([]float64, s.size)
	}
	res.X = res.X[:s.size]
	copy(res.X, s.x)
	return nil
}

// solveDC runs the DC solve, leaving the operating point in s.x.
//
// linear requests the linear fast path, for the operating point of a
// program with no nonlinear stamps: the DC system is s.base itself, so it
// is factored once and refined by factoredNewton — newton's
// arithmetic minus the per-iteration re-factorisation. Any failure falls
// back to the full ladder below (cold Newton, then gmin stepping). Every
// other DC solve is dense: at DC the capacitors are open, so the nodes
// they hold float behind gmin and base is no factor to correct from.
//
// While seeding is on (see Seed) the solve is attempted first from the
// previous converged solution; a cold start — the bit-identical legacy
// path — runs when seeding is off, no previous solution exists, or the
// warm seed failed to converge.
func (s *Session) solveDC(linear bool) error {
	s.stats.DC++
	if s.stampedGmin != gmin {
		s.stampBase(gmin)
	}
	s.sourceRHS(s.rhs, 0)
	if linear && s.lu.Factor(s.base) == nil {
		s.initialGuess(s.x)
		if s.factoredNewton(s.base, s.x, s.rhs) == nil {
			return nil
		}
	}
	if s.seed && s.haveWarm {
		s.stats.WarmStarts++
		// Hybrid continuation seed: carry the internal-node voltages and
		// branch currents of the previous converged solution — the part a
		// cold guess can only approximate — but re-pin every held node at
		// its *new* value (the same pinning initialGuess performs). The
		// sweep mutates exactly those sources between points, so the seed
		// then satisfies the new boundary conditions exactly and Newton
		// only has to track the interior.
		copy(s.x, s.xWarm)
		s.pinHeld(s.x)
		if err := s.newton(s.base, s.x, s.rhs, true); err == nil {
			copy(s.xWarm, s.x)
			return nil
		}
		// The previous solution was a bad predictor (a sweep
		// discontinuity, a basin change); fall through to the cold path.
		s.stats.WarmFallbacks++
	}
	s.initialGuess(s.x)
	if err := s.newton(s.base, s.x, s.rhs, false); err == nil {
		s.saveWarm()
		return nil
	}
	if err := s.gminStepping(); err != nil {
		s.haveWarm = false
		return err
	}
	s.saveWarm()
	return nil
}

// gminStepping solves the DC system s.rhs from the cold guess through a
// sequence of progressively less regularised systems, warm-starting each
// from the last, and ends on gmin itself, leaving the operating point in
// s.x.
func (s *Session) gminStepping() error {
	s.initialGuess(s.x)
	for g := 1e-3; g >= gmin; g /= 10 {
		s.stampBase(g)
		if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
			return fmt.Errorf("sim: DC gmin stepping failed at gmin=%g: %w", g, err)
		}
	}
	s.stampBase(gmin)
	if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
		return fmt.Errorf("sim: DC failed after gmin stepping: %w", err)
	}
	return nil
}

// saveWarm records the converged DC solution as the next warm-start seed.
// Skipped when seeding is off so cold sessions pay nothing.
func (s *Session) saveWarm() {
	if !s.seed {
		return
	}
	copy(s.xWarm, s.x)
	s.haveWarm = true
}

// RunTransient runs a transient analysis from a DC operating point at
// t = 0 to tstop on the session's fixed step (see NewSession), writing the
// waveforms into a caller-owned result. The context is checked
// periodically between timesteps; a nil context disables cancellation.
//
// After each sample it records, the operating point at t = 0 included,
// the run calls stop with the session's unknown vector for that sample —
// node voltages indexed by circuit.NodeID, then voltage-source branch
// currents, the layout of DCResult.X — and returns as soon as stop reports
// true. stop must neither modify nor retain the slice. A nil stop runs to
// tstop. Stopping skips steps; it never changes one. A run stopped at
// step k holds k+1 samples, each bit-identical to the same sample of the
// full run, and the counters (Stats, Snapshot) count only the steps
// executed. A consumer that reads only a prefix of the run therefore gets
// the same answer whenever stop fires at or after the sample that decides
// it (DESIGN.md §16).
//
// The result's backing storage is reused: after the first call on a given
// Result, a glitch-sweep loop of SetSource/SetLoad + RunTransient performs
// zero allocations per run, and the warm per-step loop allocates zero
// bytes (asserted by TestTransientStepAllocFree). On error the result's
// contents are unspecified and must not be read; it may be reused for the
// next run. The filled result does not alias session buffers and stays
// valid across further runs — but waveforms obtained from it before the
// next run on the same Result are only safe because wave.FromPoints copies
// its inputs; slices read directly from Result are overwritten by the next
// run.
//
// Programs whose shape pays for it run the factored step loop (DESIGN.md
// §17): the transient system matrix is factored exactly once per run, and
// each Newton iteration is a substitution plus a rank-r correction on the
// r rows the devices stamp. Programs with no nonlinear device stamps
// (Program.Linear) are its r = 0 case, the linear fast path: every
// timestep is a forward/back-substitution with zero Newton iterations,
// counted in Counters.LinearFastPathRuns and bit-identical to the dense
// Newton by construction. Runs with r > 0 are counted in
// Counters.LowRankRuns; their iterates are the dense Newton's up to
// round-off, and a step whose correction fails is re-solved densely
// (Counters.LowRankFallbacks). Nonlinear programs can opt into Newton
// seeding (see Seed).
func (s *Session) RunTransient(ctx context.Context, res *Result, tstop float64, stop func(x []float64) bool) error {
	return s.runTransient(ctx, res, tstop, stop, false)
}

// RunTransientAdaptive is RunTransient, run to tstop, on an adaptive time
// axis (DESIGN.md §21). It ends where the fixed grid does, at the grid's
// last point, and it runs the fixed grid's step loop, but each step is
// drawn from Dt·2^j, j = −2..6, by a local-truncation-error estimate on
// capacitor charge: a step whose estimate exceeds its bound is retried
// shorter, and the next step grows at most twofold. Every knot where a
// source waveform's slope changes is landed as a sample; the first step
// after it, like the first step of the run, is Dt, and the predictor
// restarts there from the landed solution alone, as at the start of a
// run.
//
// Where the waveforms move fast the run steps below Dt, and where they
// are settled or smooth it takes up to 64·Dt, so it needs several times
// fewer steps than the fixed grid and is at least as accurate in the
// propagation tables that use it. Counters.TransientSteps counts accepted
// steps, NewtonIters counts the iterations of rejected ones too, and
// PredictorSeeds counts the accepted steps whose solve was seeded. An
// adaptive run always takes the dense Newton. The result records the
// accepted samples, so Result.Times is not uniform; the sample cap of
// GridSteps applies at the shortest step, Dt/4.
func (s *Session) RunTransientAdaptive(ctx context.Context, res *Result, tstop float64) error {
	return s.runTransient(ctx, res, tstop, nil, true)
}

// runTransient is the one transient step loop. A fixed-grid run steps
// t = k·Dt; an adaptive one takes its steps from the stepper's LTE
// control, restamping the step matrix whenever the step length changes.
func (s *Session) runTransient(ctx context.Context, res *Result, tstop float64, stop func(x []float64) bool, adaptive bool) error {
	if res == nil {
		panic("sim: transient run with nil result")
	}
	defer s.publish(s.stats)
	s.stats.Transient++
	if ctx == nil {
		ctx = context.Background()
	}
	if math.IsNaN(tstop) || math.IsInf(tstop, 0) {
		return &OptionsError{Field: "TStop", Value: tstop}
	}
	if tstop <= 0 {
		return errors.New("sim: a transient requires a positive tstop")
	}

	h := s.dt
	// Indexed time grid: t = k·h instead of the legacy accumulating
	// t += h, which drifted by an ulp per step and could drop or duplicate
	// the final step on long runs (TestTransientStepCountExact pins the
	// count at large tstop/Dt ratios). The result records the time axis
	// and the s.n node voltages at every point.
	nsteps, err := GridSteps(tstop, h, 1+s.n)
	if err != nil {
		return err
	}
	st := stepper{adaptive: adaptive, dt: h, nsteps: nsteps}
	s.runK, s.runSteps, s.runAdaptive = 0, nsteps, adaptive
	samples := nsteps + 1
	if adaptive {
		if _, err := GridSteps(tstop, math.Ldexp(h, minLevel), 1+s.n); err != nil {
			return err
		}
		// Reserve the grid's count and a sample per breakpoint: a run that
		// steps below Dt for longer than it steps above grows the result.
		st.bps = s.breakpoints(float64(nsteps) * h)
		samples += len(st.bps)
	}
	res.reset(s.prog.ckt, s.n, samples)

	// The factored step loop, part 1 (DESIGN.md §17): the program's shape
	// decides. A linear program (r = 0) also solves its operating point on
	// a factor (see solveDC). An adaptive run changes its step matrix with
	// its step, so it takes the dense Newton.
	plan := &s.prog.lr
	r := len(plan.rows)
	factored := plan.use && !s.forceDense && !adaptive
	if factored && s.lr == nil {
		s.lr = newLowRankState(s.size, plan)
	}
	if err := s.solveDC(factored && r == 0); err != nil {
		return fmt.Errorf("sim: transient operating point: %w", err)
	}
	x := s.x // holds the operating point
	res.record(0, x)
	if stop != nil && stop(x) {
		return nil
	}

	// Transient system matrix: base + trapezoidal capacitor companion
	// conductances.
	if s.lin == nil {
		s.lin = linalg.NewMatrix(s.size, s.size)
	}
	geqFactor := s.stampStep(h)
	hStamped := h
	// The factored step loop, part 2: factor the timestep system once for
	// the whole run. Every Newton iteration below is then a substitution
	// against this factorisation, plus the rank-r correction when r > 0.
	factored = factored && s.factorStep()
	switch {
	case factored && r == 0:
		s.stats.LinearFastPathRuns++
	case factored:
		s.stats.LowRankRuns++
	}

	// Capacitor history: branch voltage and current.
	//
	// iPrev is deliberately zeroed, and this is exact, not an
	// approximation: the run starts from a *converged DC operating point*,
	// where every capacitor is an open circuit carrying zero current. It
	// would only be approximate if the solution at t = 0 were not a steady
	// state — but SetGuess perturbs the Newton seed, never the
	// converged operating point itself, so a non-steady start cannot be
	// constructed through this API (TestTransientOPCapCurrentIsZero pins
	// the flat-output consequence), and mid-transient restarts are not
	// supported: resuming would additionally need the capacitor branch
	// currents of the interrupted run, exactly what iPrev would carry.
	for i, cp := range s.prog.caps {
		s.vPrev[i] = vIdx(x, cp.a) - vIdx(x, cp.b)
		s.iPrev[i] = 0
	}
	// Nonlinear-cap history starts from the same steady state: zero branch
	// current, and C_last evaluated at the operating-point branch voltage
	// so the first step's i_last/C_last term is well-defined.
	for i := range s.prog.nlcaps {
		nc := &s.prog.nlcaps[i]
		u := vIdx(x, nc.a) - vIdx(x, nc.b)
		s.vPrevNL[i] = u
		s.iPrevNL[i] = 0
		s.cPrevNL[i], _ = nc.cp.Eval(u)
	}
	// Arm the per-iteration nonlinear-cap stamps for the step loop (and
	// only for it: DC solves must keep seeing open circuits).
	s.nlGeq = geqFactor
	defer func() { s.nlGeq = 0 }()

	// Predictor seeding only applies to runs with Newton iterations; a
	// linear fast-path run has no Newton solve to seed. The history ring
	// also feeds an adaptive run's error estimate.
	pred := s.seed && !(factored && r == 0)
	nh := 0
	if pred || adaptive {
		s.ensurePredictorBuffers()
		nh = s.pushHistory(x, 0, nh)
	}
	if adaptive {
		s.startSwing(x)
	}

	b := s.b
	t := 0.0
	for attempt := 1; ; attempt++ {
		tNext, hStep, ok := st.propose(t)
		if !ok {
			return nil
		}
		if attempt&15 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if hStep != hStamped {
			geqFactor = s.stampStep(hStep)
			s.nlGeq = geqFactor
			hStamped = hStep
		}
		s.sourceRHS(b, tNext)
		for i, cp := range s.prog.caps {
			hist := s.capC[i]*geqFactor*s.vPrev[i] + s.iPrev[i]
			if cp.a >= 0 {
				b[cp.a] += hist
			}
			if cp.b >= 0 {
				b[cp.b] -= hist
			}
		}
		seeded := false
		if pred && nh >= 2 {
			s.predictSeed(x, hStep, nh)
			seeded = true
		}
		err = s.solveStep(factored, x, b)
		if err != nil && seeded {
			// The extrapolated seed left the convergence basin; re-solve
			// from the previous converged point — exactly the legacy seed —
			// so the predictor never costs robustness.
			s.stats.PredictorFallbacks++
			copy(x, s.xHist[0])
			err = s.solveStep(factored, x, b)
		}
		if err != nil {
			return fmt.Errorf("sim: transient at t=%.3gps: %w", tNext*1e12, err)
		}
		if adaptive && nh >= 3 && !st.control(s.lteRatio(x, hStep), hStep) {
			// Rejected: the retry starts from the last accepted solution,
			// which the capacitor histories still describe.
			copy(x, s.xHist[0])
			continue
		}
		for i, cp := range s.prog.caps {
			v := vIdx(x, cp.a) - vIdx(x, cp.b)
			s.iPrev[i] = s.capC[i]*geqFactor*(v-s.vPrev[i]) - s.iPrev[i]
			s.vPrev[i] = v
		}
		for i := range s.prog.nlcaps {
			nc := &s.prog.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, _ := nc.cp.Eval(u)
			rate := geqFactor*(u-s.vPrevNL[i]) - s.iPrevNL[i]/s.cPrevNL[i]
			s.iPrevNL[i] = c * rate
			s.vPrevNL[i] = u
			s.cPrevNL[i] = c
		}
		if seeded {
			s.stats.PredictorSeeds++
		}
		s.stats.TransientSteps++
		t = tNext
		if st.accept() {
			// A breakpoint: the waveforms' derivatives jump here, so the
			// history restarts from this solution alone.
			nh = 0
		}
		if pred || adaptive {
			nh = s.pushHistory(x, hStep, nh)
		}
		if adaptive {
			s.lteSwing(x)
		}
		res.record(t, x)
		s.runK++
		if stop != nil && stop(x) {
			return nil
		}
	}
}

// stampStep stamps the transient system matrix for a step of length h:
// base plus every linear capacitor's trapezoidal companion conductance
// C·2/h. It returns the companion factor 2/h.
func (s *Session) stampStep(h float64) float64 {
	geq := 2.0 / h
	s.lin.CopyFrom(s.base)
	for i, cp := range s.prog.caps {
		s.stampConductance(s.lin, cp.a, cp.b, s.capC[i]*geq)
	}
	return geq
}

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
// update vector (asserted by TestNewtonLoopAllocFree). Results returned by
// RunDC/RunTransient are fresh allocations and remain valid after further
// runs.
//
// A Session is not safe for concurrent use; open one Session per
// goroutine (Programs are immutable and may be shared).
type Session struct {
	prog *Program
	opts Options

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
	srcW  []*wave.Waveform
	isrcW []*wave.Waveform
	capC  []float64

	// ownConst and ownConstI hold session-owned constant waveforms, one
	// per voltage/current source, lazily created by SetSourceDC and
	// SetISourceDC and mutated in place on later calls so a DC sweep point
	// allocates nothing for its source values.
	ownConst  []*wave.Waveform
	ownConstI []*wave.Waveform

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
	// nlGeq is the active companion factor (1/h for BE, 2/h for
	// trapezoidal) while a transient step loop is running, and 0 outside
	// it. assemble stamps the nonlinear caps only when nlGeq > 0: at DC a
	// capacitor is an open circuit and contributes nothing, which keeps
	// every DC solve — including the transient operating point — exactly
	// on the legacy arithmetic.
	nlGeq  float64
	nlTrap bool

	// Initial-guess seeds resolved to node indices.
	guesses []guessEntry

	// Warm-start state (see WarmStart): the last converged DC solution,
	// used as the Newton seed of the next solve when warm starting is on.
	warmStart bool
	haveWarm  bool
	xWarm     []float64

	// Predictor state (see Predictor): a ring of the last three converged
	// timestep solutions (xHist[0] newest) plus the pre-seed fallback
	// buffer, allocated lazily on the first predictor-mode transient run so
	// predictor-off sessions pay nothing.
	predictor bool
	xHist     [3][]float64
	xFallback []float64

	// noFastPath forces the Newton path even for linear programs. Test
	// hook: the fast-path property tests run both paths on one topology
	// and assert bit-identical results.
	noFastPath bool

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

// NewSession opens a Session against a compiled Program. Options are
// validated (see Options.Validate) and normalized once here; TStop is
// ignored — RunTransient takes the stop time per run.
func NewSession(p *Program, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		prog: p,
		opts: opts.normalize(),
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
	s.isrcW = append([]*wave.Waveform(nil), p.isrcW0...)
	s.capC = append([]float64(nil), p.capC0...)
	s.vPrev = make([]float64, len(p.caps))
	s.iPrev = make([]float64, len(p.caps))
	if len(p.nlcaps) > 0 {
		s.vPrevNL = make([]float64, len(p.nlcaps))
		s.iPrevNL = make([]float64, len(p.nlcaps))
		s.cPrevNL = make([]float64, len(p.nlcaps))
	}
	s.xWarm = make([]float64, s.size)
	for name, v := range s.opts.InitialGuess {
		s.setGuess(name, v)
	}
	s.stampBase(s.opts.Gmin)
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

// SetISource replaces the waveform of a current source for subsequent
// runs — the symmetric operation to SetSource for injected-noise
// characterisation sweeps that drive a net with a current stimulus.
func (s *Session) SetISource(h ISourceHandle, w *wave.Waveform) {
	if w == nil {
		panic("sim: SetISource with nil waveform")
	}
	s.isrcW[h] = w
}

// SetISourceDC sets a current source to a constant value for subsequent
// runs. Like SetSourceDC, the constant waveform is session-owned and
// mutated in place, so a DC sweep point allocates nothing here.
func (s *Session) SetISourceDC(h ISourceHandle, v float64) {
	if s.ownConstI == nil {
		s.ownConstI = make([]*wave.Waveform, len(s.isrcW))
	}
	if s.ownConstI[h] == nil {
		s.ownConstI[h] = wave.Constant(v)
	} else {
		s.ownConstI[h].V[0] = v
	}
	s.isrcW[h] = s.ownConstI[h]
}

// WarmStart switches the Newton continuation mode of subsequent DC solves
// (including the operating-point solve at the start of every transient).
//
// When on, each solve seeds Newton from the previous converged DC solution
// instead of the cold initial guess — the classic continuation trick for
// characterisation sweeps, where neighbouring grid points have nearly
// identical operating points. Ground-referenced source nodes are re-pinned
// at their current values on top of the carried solution, so the seed
// satisfies the new boundary conditions exactly, and warm solves terminate
// on the standard small-undamped-update criterion (see newton), which
// together reduce a fine sweep to about one iteration per grid point. A
// warm-started solve that fails to converge transparently falls back to
// the cold start (and then gmin stepping), so warm starting never costs
// robustness. The converged result can differ from a cold solve in the
// last bits, so a session starts cold: the characterisation sweeps
// (charlib, nrc) switch it on, while golden transients, Thevenin fits and
// one-shot solves keep the cold start.
//
// Initial-guess seeds (Options.InitialGuess, SetGuess) only apply to cold
// starts; while a warm seed is available they are ignored by design.
// Switching warm start off discards the stored solution, so the next solve
// is cold again.
func (s *Session) WarmStart(on bool) {
	s.warmStart = on
	if !on {
		s.haveWarm = false
	}
}

// Predictor switches the polynomial-predictor seeding mode of subsequent
// transient runs.
//
// When on, each timestep's Newton solve is seeded by extrapolating the
// previous converged timestep solutions instead of starting from the
// previous point alone: the first step keeps the legacy previous-point
// seed, the second uses linear extrapolation (2·x₁ − x₀), and from the
// third on a second-order polynomial over the last three points
// (3·x₂ − 3·x₁ + x₀). On the smooth waveforms of glitch rigs the seed
// lands close enough to the solution that Newton needs measurably fewer
// iterations per step (TestPredictorCutsNewtonIterations asserts the
// floor). A predicted seed that fails to converge is transparently
// re-solved from the previous converged point — the legacy seed — so the
// predictor never costs robustness; fallbacks are counted in
// Counters.PredictorFallbacks.
//
// Like WarmStart it is off in a new session because the converged result
// can differ from the legacy flow in the last bits (Newton converges to
// the same solution from a different seed, within tolerance rather than
// bitwise); the transient characterisation sweeps switch it on.
// Linear-fast-path runs ignore the predictor: they perform no Newton
// iterations to seed.
func (s *Session) Predictor(on bool) { s.predictor = on }

// MemoryBytes estimates the session's resident footprint: the dense
// matrices (base, Jacobian, the LU workspace buffer, and the transient
// system matrix once allocated) dominate at size² float64s each, plus the
// per-unknown vectors. Long-lived holders of many sessions — core.RigPool
// above all — use it to enforce byte-based retention bounds; it is an
// accounting estimate, not an exact heap measurement.
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
	if s.xFallback != nil {
		// Predictor history ring (3 vectors) plus the fallback buffer.
		b += 4 * sz * 8
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

// SetGuess overrides the initial-guess voltage of a named node for
// subsequent runs, replacing any value the Options carried for it.
// Unknown node names and ground are silently ignored, matching how
// Options.InitialGuess treats them; the value must be finite.
func (s *Session) SetGuess(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("sim: SetGuess(%q) with non-finite value %g", name, v))
	}
	s.setGuess(name, v)
}

func (s *Session) setGuess(name string, v float64) {
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

// stampBase fills the linear, time-invariant part of the Jacobian.
func (s *Session) stampBase(gmin float64) {
	s.base.Zero()
	for i := 0; i < s.n; i++ {
		s.base.Add(i, i, gmin)
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
	s.stampedGmin = gmin
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
	// F = lin·x - b
	lin.MulVecInto(s.f, x)
	for i := range s.f {
		s.f[i] -= b[i]
	}
	// MOSFETs.
	for i := range s.prog.mos {
		m := &s.prog.mos[i]
		vd, vg, vs := vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s)
		id, gd, gg, gs := m.p.Eval(vd, vg, vs)
		d, g, src := m.d, m.g, m.s
		// id is the current into the drain terminal, i.e. leaving node D.
		if d >= 0 {
			s.f[d] += id
			s.jac.Add(d, d, gd)
			if g >= 0 {
				s.jac.Add(d, g, gg)
			}
			if src >= 0 {
				s.jac.Add(d, src, gs)
			}
		}
		if src >= 0 {
			s.f[src] -= id
			s.jac.Add(src, src, -gs)
			if d >= 0 {
				s.jac.Add(src, d, -gd)
			}
			if g >= 0 {
				s.jac.Add(src, g, -gg)
			}
		}
	}
	// Nonlinear gate-charge capacitors: the charge-conserving companion
	// form of the NLMOS discretization, re-evaluated from the current
	// iterate on every assembly. With u = v(a) − v(b) and geq = 2/h
	// (trapezoidal) or 1/h (backward Euler):
	//
	//	i     = C(u)·(geq·(u − u_last) − i_last/C_last)   (trap)
	//	i     = C(u)·geq·(u − u_last)                     (BE)
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
			rate := geq * (u - s.vPrevNL[i])
			if s.nlTrap {
				rate -= s.iPrevNL[i] / s.cPrevNL[i]
			}
			cur := c * rate
			g := dc*rate + c*geq
			a, bn := nc.a, nc.b
			if a >= 0 {
				s.f[a] += cur
				s.jac.Add(a, a, g)
				if bn >= 0 {
					s.jac.Add(a, bn, -g)
				}
			}
			if bn >= 0 {
				s.f[bn] -= cur
				s.jac.Add(bn, bn, g)
				if a >= 0 {
					s.jac.Add(bn, a, -g)
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
			s.jac.Add(o, o, -gout)
			if cn >= 0 {
				s.jac.Add(o, cn, -gc)
			}
		}
	}
}

// newton solves F(x) = 0 starting from x, modifying it in place. The loop
// body allocates nothing: the Jacobian factors into the session's LU
// workspace and the update solves into the preallocated dx buffer.
//
// relaxed selects the warm-start termination criterion (small undamped
// update, no residual verification); DC solves pass it in warm-start mode,
// transient timestep solves always use the strict dual criterion.
func (s *Session) newton(lin *linalg.Matrix, x, b []float64, relaxed bool) error {
	opts := s.opts
	for it := 0; it < opts.MaxNewton; it++ {
		s.stats.NewtonIters++
		s.assemble(lin, x, b)
		if err := s.lu.Factor(s.jac); err != nil {
			return fmt.Errorf("sim: singular Jacobian at Newton iteration %d: %w", it, err)
		}
		s.lu.SolveInto(s.dx, s.f)
		dx := s.dx
		// Damping: bound the voltage update.
		maxdv := 0.0
		for i := 0; i < s.n; i++ {
			if a := math.Abs(dx[i]); a > maxdv {
				maxdv = a
			}
		}
		scale := 1.0
		if maxdv > opts.MaxStep {
			scale = opts.MaxStep / maxdv
		}
		for i := range x {
			x[i] -= scale * dx[i]
		}
		if relaxed {
			// Warm-start termination: accept on a small undamped update.
			// A full Newton step (scale == 1) below VTol bounds the
			// remaining error quadratically — the linearised residual is
			// solved exactly, so what is left is O(curvature·dv²) — which
			// makes the cold path's extra residual-verification iteration
			// redundant. This is what turns a continuation sweep into one
			// iteration per grid point; it is confined to warm-mode DC
			// solves (transient timesteps always verify the residual), so
			// the cold path stays bit-identical to the legacy flow and
			// warm transients differ from cold only through their
			// operating point.
			if maxdv*scale < opts.VTol && scale == 1 {
				return nil
			}
			continue
		}
		maxf := 0.0
		for i := 0; i < s.n; i++ {
			if a := math.Abs(s.f[i]); a > maxf {
				maxf = a
			}
		}
		if maxdv*scale < opts.VTol && maxf < opts.ITol*math.Max(1, float64(s.n)) {
			return nil
		}
	}
	return ErrNoConvergence
}

// linearRefine is the inner loop of the linear transient fast path: the
// exact arithmetic of newton specialised to a program with no nonlinear
// device stamps, with the factorisation hoisted out of the loop. For such
// a program assemble's Jacobian is bitwise the linear system matrix on
// every iteration, so newton's per-iteration Factor recomputes identical
// LU bits each time; the caller factors lin into s.lu once and each pass
// here is a residual evaluation plus forward/back-substitution — O(n²)
// instead of O(n³) — producing bit-identical iterates, damping decisions
// and convergence checks (asserted by the fast-path property tests).
//
// Passes of this loop are plain linear solves, deliberately not counted in
// NewtonIters: a fast-path transient run reports zero Newton iterations,
// and that counter assertion is the proof the run never re-factored.
func (s *Session) linearRefine(lin *linalg.Matrix, x, b []float64) error {
	opts := s.opts
	for it := 0; it < opts.MaxNewton; it++ {
		// F = lin·x - b, as in assemble (no device loops: none exist).
		lin.MulVecInto(s.f, x)
		for i := range s.f {
			s.f[i] -= b[i]
		}
		s.lu.SolveInto(s.dx, s.f)
		dx := s.dx
		maxdv := 0.0
		for i := 0; i < s.n; i++ {
			if a := math.Abs(dx[i]); a > maxdv {
				maxdv = a
			}
		}
		scale := 1.0
		if maxdv > opts.MaxStep {
			scale = opts.MaxStep / maxdv
		}
		for i := range x {
			x[i] -= scale * dx[i]
		}
		maxf := 0.0
		for i := 0; i < s.n; i++ {
			if a := math.Abs(s.f[i]); a > maxf {
				maxf = a
			}
		}
		if maxdv*scale < opts.VTol && maxf < opts.ITol*math.Max(1, float64(s.n)) {
			return nil
		}
	}
	return ErrNoConvergence
}

// ensurePredictorBuffers lazily allocates the predictor history ring and
// fallback buffer on the first predictor-mode transient run.
func (s *Session) ensurePredictorBuffers() {
	if s.xFallback != nil {
		return
	}
	s.xFallback = make([]float64, s.size)
	for i := range s.xHist {
		s.xHist[i] = make([]float64, s.size)
	}
}

// pushHistory records a converged timestep solution in the predictor ring
// by pointer rotation (the oldest buffer is overwritten and becomes the
// newest), allocating nothing. nh is the current history depth; the new
// depth (capped at 3) is returned.
func (s *Session) pushHistory(x []float64, nh int) int {
	buf := s.xHist[2]
	s.xHist[2] = s.xHist[1]
	s.xHist[1] = s.xHist[0]
	copy(buf, x)
	s.xHist[0] = buf
	if nh < 3 {
		nh++
	}
	return nh
}

// predictSeed overwrites x with the polynomial extrapolation of the
// history ring: linear over two points, second-order over three. The
// uniform-step Lagrange forms (2·x₁ − x₀ and 3·x₂ − 3·x₁ + x₀) are exact
// for the session's fixed Dt grid.
func (s *Session) predictSeed(x []float64, nh int) {
	h0, h1 := s.xHist[0], s.xHist[1]
	if nh >= 3 {
		h2 := s.xHist[2]
		for i := range x {
			x[i] = 3*h0[i] - 3*h1[i] + h2[i]
		}
		return
	}
	for i := range x {
		x[i] = 2*h0[i] - h1[i]
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
			b[is.pos] += s.isrcW[k].At(t)
		}
		if is.neg >= 0 {
			b[is.neg] -= s.isrcW[k].At(t)
		}
	}
}

// initialGuess fills x with the DC starting point.
func (s *Session) initialGuess(x []float64) {
	for i := range x {
		x[i] = 0
	}
	// Ground-referenced DC sources pin their node directly; this lands the
	// first iterate close to the operating point for rail-connected nets.
	for k, v := range s.prog.vsrc {
		if v.neg < 0 && v.pos >= 0 {
			x[v.pos] = s.srcW[k].At(0)
		}
	}
	for _, g := range s.guesses {
		x[g.node] = g.v
	}
}

// RunDC computes the operating point at t = 0 with the session's current
// parameters. When plain Newton fails it falls back to gmin stepping:
// solving a sequence of progressively less regularised systems,
// warm-starting each from the last. The returned result does not alias
// session buffers; sweeps that want an allocation-free loop use RunDCInto.
func (s *Session) RunDC() (*DCResult, error) {
	defer s.publish(s.stats)
	if _, err := s.solveDC(false); err != nil {
		return nil, err
	}
	return s.dcResult(), nil
}

// RunDCInto is RunDC writing the operating point into a caller-owned
// result, reusing its backing storage: after the first call on a given
// DCResult, a sweep loop of SetSourceDC + RunDCInto + SourceCurrent
// performs zero allocations per grid point (asserted by
// TestRunDCIntoAllocFree). On error the result is left untouched. The
// filled result does not alias session buffers and stays valid across
// further runs.
func (s *Session) RunDCInto(res *DCResult) error {
	if res == nil {
		panic("sim: RunDCInto with nil result")
	}
	defer s.publish(s.stats)
	if _, err := s.solveDC(false); err != nil {
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

// solveDC runs the DC solve, leaving the operating point in s.x, and
// reports whether it took the linear fast path.
//
// linear requests that fast path, for the operating point of a program
// with no nonlinear stamps: the DC system is s.base itself, so it is
// factored once and refined — the same arithmetic newton performs, minus
// the per-iteration re-factorisation (see linearRefine). Any failure falls
// back to the full ladder below (cold Newton, then gmin stepping).
//
// In warm-start mode (see WarmStart) the solve is attempted first from the
// previous converged solution; a cold start — the bit-identical legacy
// path — runs when warm starting is off, no previous solution exists, or
// the warm seed failed to converge.
func (s *Session) solveDC(linear bool) (fast bool, err error) {
	s.stats.DC++
	if s.stampedGmin != s.opts.Gmin {
		s.stampBase(s.opts.Gmin)
	}
	s.sourceRHS(s.rhs, 0)
	if linear && s.lu.Factor(s.base) == nil {
		s.initialGuess(s.x)
		if s.linearRefine(s.base, s.x, s.rhs) == nil {
			return true, nil
		}
	}
	if s.warmStart && s.haveWarm {
		s.stats.WarmStarts++
		// Hybrid continuation seed: carry the internal-node voltages and
		// branch currents of the previous converged solution — the part a
		// cold guess can only approximate — but re-pin every
		// ground-referenced source node at its *new* value (the same
		// pinning initialGuess performs). The sweep mutates exactly those
		// sources between points, so the seed then satisfies the new
		// boundary conditions exactly and Newton only has to track the
		// interior.
		copy(s.x, s.xWarm)
		for k, v := range s.prog.vsrc {
			if v.neg < 0 && v.pos >= 0 {
				s.x[v.pos] = s.srcW[k].At(0)
			}
		}
		if err := s.newton(s.base, s.x, s.rhs, true); err == nil {
			copy(s.xWarm, s.x)
			return false, nil
		}
		// The previous solution was a bad predictor (a sweep
		// discontinuity, a basin change); fall through to the cold path.
		s.stats.WarmFallbacks++
	}
	s.initialGuess(s.x)
	if err := s.newton(s.base, s.x, s.rhs, false); err == nil {
		s.saveWarm()
		return false, nil
	}
	// gmin stepping.
	s.initialGuess(s.x)
	for gmin := 1e-3; gmin >= s.opts.Gmin; gmin /= 10 {
		s.stampBase(gmin)
		if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
			s.haveWarm = false
			return false, fmt.Errorf("sim: DC gmin stepping failed at gmin=%g: %w", gmin, err)
		}
	}
	s.stampBase(s.opts.Gmin)
	if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
		s.haveWarm = false
		return false, fmt.Errorf("sim: DC failed after gmin stepping: %w", err)
	}
	s.saveWarm()
	return false, nil
}

// saveWarm records the converged DC solution as the next warm-start seed.
// Skipped when warm starting is off so cold sessions pay nothing.
func (s *Session) saveWarm() {
	if !s.warmStart {
		return
	}
	copy(s.xWarm, s.x)
	s.haveWarm = true
}

func (s *Session) dcResult() *DCResult {
	return &DCResult{c: s.prog.ckt, X: append([]float64(nil), s.x...), n: s.n}
}

// RunTransient runs a transient analysis from a DC operating point at
// t = 0 to tstop with the session's fixed step (Options.Dt). The context
// is checked periodically between timesteps; a nil context disables
// cancellation. The returned result does not alias session buffers; sweeps
// that want an allocation-free loop use RunTransientInto.
//
// Programs with no nonlinear device stamps (Program.Linear) take the
// linear fast path: the transient system matrix is factored exactly once
// per run and every timestep is a forward/back-substitution, with zero
// Newton iterations — counted in Counters.LinearFastPathRuns and
// bit-identical to the Newton path by construction (see linearRefine).
// Warm-start mode disables the fast path for the run, keeping WarmStart's
// documented DC continuation semantics; nonlinear programs can opt into
// predictor seeding instead (see Predictor).
func (s *Session) RunTransient(ctx context.Context, tstop float64) (*Result, error) {
	res := &Result{}
	if err := s.RunTransientInto(ctx, res, tstop); err != nil {
		return nil, err
	}
	return res, nil
}

// RunTransientInto is RunTransient writing the waveforms into a
// caller-owned result, reusing its backing storage: after the first call
// on a given Result, a glitch-sweep loop of SetSource/SetLoad +
// RunTransientInto performs zero allocations per run, and the warm
// per-step loop allocates zero bytes (asserted by
// TestTransientStepAllocFree). On error the result's contents are
// unspecified and must not be read; it may be reused for the next run. The
// filled result does not alias session buffers and stays valid across
// further runs — but waveforms obtained from it before the next
// RunTransientInto call on the same Result are only safe because
// wave.FromPoints copies its inputs; slices read directly from Result are
// overwritten by the next run.
func (s *Session) RunTransientInto(ctx context.Context, res *Result, tstop float64) error {
	if res == nil {
		panic("sim: RunTransientInto with nil result")
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
		return errors.New("sim: Transient requires positive TStop")
	}

	opts := s.opts
	h := opts.Dt
	// Indexed time grid: t = k·h instead of the legacy accumulating
	// t += h, which drifted by an ulp per step and could drop or duplicate
	// the final step on long runs (TestTransientStepCountExact pins the
	// count at large tstop/Dt ratios). The result records the time axis,
	// s.n node voltages and s.m branch currents at every point.
	nsteps, err := GridSteps(tstop, h, 1+s.n+s.m)
	if err != nil {
		return err
	}
	res.reset(s.prog.ckt, s.n, s.m, nsteps+1)

	// Linear fast path, part 1: the operating point (see solveDC). Warm-start
	// mode takes the legacy ladder unconditionally so its continuation
	// semantics and stats are untouched.
	fast, err := s.solveDC(s.prog.linear && !s.noFastPath && !s.warmStart)
	if err != nil {
		return fmt.Errorf("sim: transient operating point: %w", err)
	}
	x := s.x // holds the operating point
	res.record(0, x)

	// Transient system matrix: base + capacitor companion conductances.
	geqFactor := 1.0 / h // BE
	if opts.Method == Trapezoidal {
		geqFactor = 2.0 / h
	}
	if s.lin == nil {
		s.lin = linalg.NewMatrix(s.size, s.size)
	}
	s.lin.CopyFrom(s.base)
	for i, cp := range s.prog.caps {
		s.stampConductance(s.lin, cp.a, cp.b, s.capC[i]*geqFactor)
	}
	// Linear fast path, part 2: factor the timestep system once for the
	// whole run. Every step below is then a substitution against this
	// factorisation.
	if fast {
		fast = s.lu.Factor(s.lin) == nil
	}
	if fast {
		s.stats.LinearFastPathRuns++
	}

	// Capacitor history: branch voltage and (for trapezoidal) current.
	//
	// iPrev is deliberately zeroed, and this is exact, not an
	// approximation: the run starts from a *converged DC operating point*,
	// where every capacitor is an open circuit carrying zero current. It
	// would only be approximate if the solution at t = 0 were not a steady
	// state — but SetGuess/InitialGuess perturb the Newton seed, never the
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
	s.nlTrap = opts.Method == Trapezoidal
	defer func() { s.nlGeq = 0 }()

	// Predictor seeding only applies to Newton-path runs; a fast-path run
	// has no Newton solve to seed.
	pred := s.predictor && !fast
	nh := 0
	if pred {
		s.ensurePredictorBuffers()
		nh = s.pushHistory(x, nh)
	}

	b := s.b
	for k := 1; k <= nsteps; k++ {
		t := float64(k) * h
		if k&15 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.sourceRHS(b, t)
		for i, cp := range s.prog.caps {
			var hist float64
			if opts.Method == Trapezoidal {
				hist = s.capC[i]*geqFactor*s.vPrev[i] + s.iPrev[i]
			} else {
				hist = s.capC[i] * geqFactor * s.vPrev[i]
			}
			if cp.a >= 0 {
				b[cp.a] += hist
			}
			if cp.b >= 0 {
				b[cp.b] -= hist
			}
		}
		if fast {
			err = s.linearRefine(s.lin, x, b)
		} else {
			seeded := false
			if pred && nh >= 2 {
				copy(s.xFallback, x)
				s.predictSeed(x, nh)
				seeded = true
				s.stats.PredictorSeeds++
			}
			err = s.newton(s.lin, x, b, false)
			if err != nil && seeded {
				// The extrapolated seed left the convergence basin;
				// re-solve from the previous converged point — exactly the
				// legacy seed — so the predictor never costs robustness.
				s.stats.PredictorFallbacks++
				copy(x, s.xFallback)
				err = s.newton(s.lin, x, b, false)
			}
		}
		if err != nil {
			return fmt.Errorf("sim: transient at t=%.3gps: %w", t*1e12, err)
		}
		for i, cp := range s.prog.caps {
			v := vIdx(x, cp.a) - vIdx(x, cp.b)
			if opts.Method == Trapezoidal {
				s.iPrev[i] = s.capC[i]*geqFactor*(v-s.vPrev[i]) - s.iPrev[i]
			} else {
				s.iPrev[i] = s.capC[i] * geqFactor * (v - s.vPrev[i])
			}
			s.vPrev[i] = v
		}
		for i := range s.prog.nlcaps {
			nc := &s.prog.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, _ := nc.cp.Eval(u)
			rate := geqFactor * (u - s.vPrevNL[i])
			if opts.Method == Trapezoidal {
				rate -= s.iPrevNL[i] / s.cPrevNL[i]
			}
			s.iPrevNL[i] = c * rate
			s.vPrevNL[i] = u
			s.cPrevNL[i] = c
		}
		if pred {
			nh = s.pushHistory(x, nh)
		}
		s.stats.TransientSteps++
		res.record(t, x)
	}
	return nil
}

package sim

import (
	"errors"

	"stanoise/internal/linalg"
)

// lowRankPlan is the compile-time shape of the factored transient step
// loop (DESIGN.md §17). Within a transient run the step matrix Lin — base
// conductances plus capacitor companions — is constant; only the device
// stamps follow the Newton iterate, and they land on few rows: R, the rows
// stamped by MOSFET drains and sources, nonlinear gate-cap terminals and
// VCCS outputs (ground excluded), and within those rows only on C, the
// columns the devices read. The Jacobian is J = Lin + P_R·E_R, with P_R
// the identity's columns at R and E_R the r×c device block, so the Newton
// update J⁻¹·F follows from one factor of Lin by the Woodbury identity:
//
//	y  = Lin⁻¹·F
//	K  = I + E_R·W,  W = Lin⁻¹·P_R  (formed once per run)
//	dx = y − W·K⁻¹·(E_R·y)
//
// A linear program is the r = 0 case: dx = y, the linear fast path.
type lowRankPlan struct {
	rows, cols   []int // R and C as ascending node indices
	rowOf, colOf []int // node index → position in rows/cols, or −1
	// capRows are the device rows not pinned by a ground-referenced
	// voltage source. Each carries a linear capacitor, and a run takes the
	// path only while those capacitors stamp a nonzero companion there:
	// that is what keeps Lin well conditioned on R.
	capRows []int
	// use reports that the shape passes the conditioning guard and the
	// cost model (lowRankPays); the zero plan is never used.
	use bool
}

// planLowRank derives the factored step loop's shape from the compiled
// stamp plans. Every device row must be pinned by a ground-referenced
// voltage source or carry a linear capacitor, the two stamps that keep
// Lin well conditioned there whatever else the node touches. A node whose
// other connections are all transistors holds only gmin in Lin: W would
// be huge and the correction all cancellation, so such a program stays on
// the dense Newton.
func (p *Program) planLowRank() lowRankPlan {
	isRow := make([]bool, p.n)
	isCol := make([]bool, p.n)
	mark := func(set []bool, nodes ...int) {
		for _, i := range nodes {
			if i >= 0 {
				set[i] = true
			}
		}
	}
	for _, m := range p.mos {
		mark(isRow, m.d, m.s)
		mark(isCol, m.d, m.g, m.s)
	}
	for _, c := range p.nlcaps {
		mark(isRow, c.a, c.b)
		mark(isCol, c.a, c.b)
	}
	for _, e := range p.vccs {
		mark(isRow, e.out)
		mark(isCol, e.out, e.ctrl)
	}
	hasCap := make([]bool, p.n)
	for _, c := range p.caps {
		mark(hasCap, c.a, c.b)
	}

	lr := lowRankPlan{rowOf: make([]int, p.n), colOf: make([]int, p.n)}
	for i := 0; i < p.n; i++ {
		lr.rowOf[i], lr.colOf[i] = -1, -1
		if isRow[i] {
			lr.rowOf[i] = len(lr.rows)
			lr.rows = append(lr.rows, i)
			switch {
			case p.held[i].src >= 0:
			case hasCap[i]:
				lr.capRows = append(lr.capRows, i)
			default:
				return lowRankPlan{}
			}
		}
		if isCol[i] {
			lr.colOf[i] = len(lr.cols)
			lr.cols = append(lr.cols, i)
		}
	}
	if !lowRankPays(p.size, len(lr.rows), len(lr.cols)) {
		return lowRankPlan{}
	}
	lr.use = true
	return lr
}

// lowRankPays is the cost model of the shape rule: it reports whether one
// factored Newton iteration is predicted to cost at most half a dense one.
// Costs are multiply-adds per iteration of an MNA system of the given
// size with r device rows and c device columns; the residual product and
// the device evaluations are common to both and left out.
//
// A dense iteration copies the step matrix into the Jacobian and factors
// (size³/3) and substitutes (size²) it. A factored one substitutes against
// Lin's factor (size²) and, for r > 0, clears E_R and forms E_R·y (2·r·c),
// forms K = I + E_R·W (r²·c), factors and solves K (r³/3 + r²) and applies
// W (size·r). The correction's multiply-adds count double: they run in
// loops of length r or c, too short to stream the way the factor's rows
// do. The model overstates the saving at large sizes, but at the 2×
// threshold it tracks the measured per-iteration solve costs: every shape
// it takes measured at least 1.1× faster, none it leaves dense more than
// 1.9×, every cell-sized characterisation rig stays dense and every
// golden bench takes the path (DESIGN.md §17 has the crossover table). A
// linear program (r = 0) always passes.
func lowRankPays(size, r, c int) bool {
	n, rr, cc := float64(size), float64(r), float64(c)
	dense := n*n*n/3 + 2*n*n
	correction := 2*rr*cc + rr*rr*cc + rr*rr*rr/3 + rr*rr + n*rr
	return dense >= 2*(n*n+2*correction)
}

// lowRankState is a session's buffers for the factored step loop,
// allocated on its first transient run that takes the path and reused by
// every later one. Lin's factor itself lives in the session's dense LU
// workspace: the run's DC solve is done with it before factorStep, and a
// dense re-solve of a failed step restores it (solveStep).
type lowRankState struct {
	w    *linalg.Matrix      // W = Lin⁻¹·P_R, size × r
	e    *linalg.Matrix      // E_R on the device columns, r × c
	k    *linalg.Matrix      // K = I + E_R·W, r × r
	klu  *linalg.LUWorkspace // K's factor, once per iteration
	z, u []float64           // E_R·y and K⁻¹·E_R·y
	seed []float64           // the step's seed, for the dense re-solve
}

func newLowRankState(size int, plan *lowRankPlan) *lowRankState {
	r, c := len(plan.rows), len(plan.cols)
	return &lowRankState{
		w:    linalg.NewMatrix(size, r),
		e:    linalg.NewMatrix(r, c),
		k:    linalg.NewMatrix(r, r),
		klu:  linalg.NewLUWorkspace(r),
		z:    make([]float64, r),
		u:    make([]float64, r),
		seed: make([]float64, size),
	}
}

// memoryBytes counts the state's float64 buffers (W dominates) and K's
// pivot vector.
func (lr *lowRankState) memoryBytes() int64 {
	r := int64(lr.klu.Size())
	floats := int64(len(lr.w.Data)+len(lr.e.Data)+len(lr.z)+len(lr.u)+len(lr.seed)) + 2*r*r
	return 8 * (floats + r)
}

// errCorrection reports a singular K: the rank-r correction has no
// answer at this iterate, and the step is re-solved on the dense Newton.
var errCorrection = errors.New("sim: singular low-rank correction")

// factorStep prepares the factored step loop for one run: it factors the
// step matrix s.lin into s.lu and, for r > 0, forms W = Lin⁻¹·P_R with
// one substitution per device row. It reports false, and the run then
// takes the dense Newton, when Lin is singular or a device row that relies
// on a capacitor has none stamped in this run (SetLoad to zero).
func (s *Session) factorStep() bool {
	plan := &s.prog.lr
	for _, i := range plan.capRows {
		if s.lin.At(i, i) == s.base.At(i, i) {
			return false
		}
	}
	if s.lu.Factor(s.lin) != nil {
		return false
	}
	r, w := len(plan.rows), s.lr.w.Data
	for j, row := range plan.rows {
		clear(s.f)
		s.f[row] = 1
		s.lu.SolveInto(s.dx, s.f)
		for i, v := range s.dx {
			w[i*r+j] = v
		}
	}
	return true
}

// factoredNewton is newton against the step matrix lin factored once per
// run into s.lu (factorStep, or solveDC for a linear operating point).
// Each iteration evaluates the residual, stamps the device conductances
// into E_R instead of a copy of lin, substitutes y = Lin⁻¹·F and, for
// r > 0, applies the rank-r correction; damping and convergence are
// newton's own (update). In exact arithmetic the iterates are the dense
// Newton's.
//
// A linear program (r = 0) makes every pass a plain substitution, bitwise
// the dense Newton's update because its Jacobian is lin itself; those
// passes are not counted in NewtonIters, so a linear run reports zero
// Newton iterations — the counter proof that it never re-factored. With
// r > 0 each pass is a Newton iteration and counted as one.
func (s *Session) factoredNewton(lin *linalg.Matrix, x, b []float64) error {
	plan := &s.prog.lr
	r := len(plan.rows)
	e := stampTarget{data: s.lr.e.Data, stride: len(plan.cols), rowOf: plan.rowOf, colOf: plan.colOf}
	for it := 0; it < maxNewton; it++ {
		s.residual(lin, x, b)
		if r > 0 {
			s.stats.NewtonIters++
			clear(e.data)
			s.stampDevices(x, &e)
		}
		s.lu.SolveInto(s.dx, s.f)
		if r > 0 {
			if err := s.correct(); err != nil {
				return err
			}
		}
		if s.update(x, false) {
			return nil
		}
	}
	return ErrNoConvergence
}

// correct turns y = Lin⁻¹·F, held in s.dx, into the Newton update J⁻¹·F:
// z = E_R·y and K = I + E_R·W over the device columns, then
// dx = y − W·K⁻¹·z. K is factored with partial pivoting; a singular K is
// errCorrection.
func (s *Session) correct() error {
	plan, lr := &s.prog.lr, s.lr
	r, c := len(plan.rows), len(plan.cols)
	e, w, k := lr.e.Data, lr.w.Data, lr.k.Data
	for i := 0; i < r; i++ {
		erow, krow := e[i*c:(i+1)*c], k[i*r:(i+1)*r]
		clear(krow)
		krow[i] = 1
		z := 0.0
		for j, col := range plan.cols {
			v := erow[j]
			if v == 0 {
				continue
			}
			z += v * s.dx[col]
			for m, wv := range w[col*r : (col+1)*r] {
				krow[m] += v * wv
			}
		}
		lr.z[i] = z
	}
	if s.failCorrections > 0 {
		s.failCorrections--
		return errCorrection
	}
	if lr.klu.Factor(lr.k) != nil {
		return errCorrection
	}
	lr.klu.SolveInto(lr.u, lr.z)
	for i := range s.dx {
		sum := 0.0
		for m, wv := range w[i*r : (i+1)*r] {
			sum += wv * lr.u[m]
		}
		s.dx[i] -= sum
	}
	return nil
}

// stampTarget is the matrix stampDevices adds device conductances to: the
// dense Jacobian, addressed by node index, or the device block E_R,
// addressed through a lowRankPlan's row and column maps.
type stampTarget struct {
	data         []float64
	stride       int
	rowOf, colOf []int // nil for the dense Jacobian
}

func (t *stampTarget) add(r, c int, v float64) {
	if t.rowOf != nil {
		r, c = t.rowOf[r], t.colOf[c]
	}
	t.data[r*t.stride+c] += v
}

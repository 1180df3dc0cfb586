package sim

import "math"

// The free-node solve (DESIGN.md §32) is the dense Newton's linear solve
// done the way the dense LU of linalg.LUWorkspace does it, minus the work
// on structural zeros. In an MNA system whose every voltage source holds
// one node against ground, a held node's column pivots on its source's
// row, a lone ±1, whenever every other entry of the column is below 1 in
// magnitude: its elimination only stores the column as multipliers. Each
// source's branch column then pivots on its node's KCL row, again a lone
// ±1. Real elimination is left to the columns of the free nodes (those no
// source holds), over the KCL rows of all nodes. solveFree factors that
// n×n node block in the dense LU's column order, with its pivots and its
// row order for ties, and substitutes in the dense order; every product it
// skips has an exact zero factor and a finite other one, so the update is
// the dense one bit for bit. An iteration whose Jacobian breaks the
// premise — a held column with an entry of 1 or more, a free column whose
// first largest entry sits in a held node's row, a singular pivot or a
// value that is not finite — runs the dense LU instead.

// freeState is a session's buffers for the free-node solve, allocated at
// NewSession for a program whose every voltage source holds one node and
// no node twice: the dense LU's row order and pivots. The node block
// itself is factored in the LU workspace's buffer, which a dense
// factorisation would overwrite anyway.
type freeState struct {
	rowAt []int // the dense LU's row at each position: node i's KCL row is i, source k's row n+k
	posOf []int // each row's position
	piv   []int // the row each node column pivots on
}

func newFreeState(p *Program) *freeState {
	return &freeState{rowAt: make([]int, p.size), posOf: make([]int, p.size), piv: make([]int, p.n)}
}

// memoryBytes counts the three index vectors.
func (fs *freeState) memoryBytes() int64 {
	return 8 * int64(len(fs.rowAt)+len(fs.posOf)+len(fs.piv))
}

// solveTally counts a session's dense Newton solves by the way they ran:
// on the free-node solve, or on the dense LU and why. It is read by the
// tests; no counter reports it.
type solveTally struct {
	free       int64 // the free-node solve
	shape      int64 // dense: the program is outside the shape, or forceDense
	heldColumn int64 // dense: a held column has an entry of magnitude 1 or more
	heldPivot  int64 // dense: a held node's KCL row won a free column
	singular   int64 // dense: a free column's pivot is below the dense LU's threshold
	nonFinite  int64 // dense: an entry, multiplier or update is not finite
}

// solveNewton sets s.dx to the Newton update J⁻¹·F of the assembled
// Jacobian s.jac and residual s.f: on the free-node solve when the
// Jacobian meets its premise, else on the dense LU, whose error it
// returns.
func (s *Session) solveNewton() error {
	if s.solveFree() {
		return nil
	}
	if err := s.lu.Factor(s.jac); err != nil {
		return err
	}
	s.lu.SolveInto(s.dx, s.f)
	return nil
}

// solveFree runs the free-node solve into s.dx and reports whether it
// did, counting the outcome in s.tally; either way s.jac and s.f are left
// as they were, and the LU workspace holds no usable factorisation.
func (s *Session) solveFree() bool {
	fs := s.fs
	if fs == nil || s.forceDense {
		s.tally.shape++
		return false
	}
	n, size := s.n, s.size
	held := s.prog.held
	w, rowAt, posOf, piv := s.lu.Buffer()[:n*n], fs.rowAt, fs.posOf, fs.piv
	jac := s.jac.Data
	for r := range n {
		copy(w[r*n:(r+1)*n], jac[r*size:r*size+n])
	}
	for i := range size {
		rowAt[i], posOf[i] = i, i
	}

	for k := range n {
		var pr int
		if h := held[k]; h.src >= 0 {
			// The source row's ±1 must be the column's unique largest
			// entry; the other source rows hold zeros here. Every KCL
			// entry is checked, the rows already used as pivots too.
			for r := range n {
				if v := w[r*n+k]; !(v < 1 && v > -1) {
					s.tally.heldColumn++
					return false
				}
			}
			pr = n + h.src
			if h.sign < 0 {
				// The multipliers are the column over the pivot −1.
				for _, r := range rowAt[k:] {
					if r < n {
						w[r*n+k] = -w[r*n+k]
					}
				}
			}
		} else {
			// The dense LU's first largest entry over the rows not yet
			// used, in its row order; the source rows hold zeros here.
			best := -1.0
			pr = -1
			for _, r := range rowAt[k:] {
				if r >= n {
					continue
				}
				if v := math.Abs(w[r*n+k]); v > best {
					best, pr = v, r
				}
			}
			switch {
			case pr < 0 || best < 1e-300:
				s.tally.singular++
				return false
			case held[pr].src >= 0:
				s.tally.heldPivot++
				return false
			}
		}
		p := posOf[pr]
		rowAt[p], rowAt[k] = rowAt[k], pr
		posOf[rowAt[p]], posOf[pr] = p, k
		piv[k] = pr
		if pr >= n {
			continue
		}
		prow := w[pr*n : (pr+1)*n]
		pivot := prow[k]
		for _, r := range rowAt[k+1:] {
			if r >= n {
				continue
			}
			row := w[r*n : (r+1)*n]
			m := row[k] / pivot
			row[k] = m
			if m == 0 {
				continue
			}
			for c := k + 1; c < n; c++ {
				row[c] -= m * prow[c]
			}
		}
	}

	// Forward substitution in column order: a held column's pivot row is
	// its source's, whose multipliers are all zero; a branch column's is
	// its node's KCL row, whose multipliers in the other branch columns
	// are zero.
	dx, f := s.dx, s.f
	for k := range n {
		pr := piv[k]
		if pr >= n {
			dx[k] = f[pr]
			continue
		}
		sum := f[pr]
		for j, v := range w[pr*n : pr*n+k] {
			sum -= v * dx[j]
		}
		dx[k] = sum
	}
	for j, v := range s.prog.vsrc {
		h := v.pos
		if h < 0 {
			h = v.neg
		}
		sum := f[h]
		for c, l := range w[h*n : (h+1)*n] {
			sum -= l * dx[c]
		}
		// Back substitution: a held node's KCL row is ±1 on the diagonal
		// and zero to its right, and so is a source row.
		if v.pos < 0 {
			sum = -sum
		}
		dx[n+j] = sum
	}
	for k := n - 1; k >= 0; k-- {
		pr := piv[k]
		if pr >= n {
			if held[k].sign < 0 {
				dx[k] = -dx[k]
			}
			continue
		}
		row := w[pr*n : (pr+1)*n]
		sum := dx[k]
		for c := k + 1; c < n; c++ {
			sum -= row[c] * dx[c]
		}
		dx[k] = sum / row[k]
	}

	// A skipped product is an exact zero only against a finite factor.
	// Every value the solve made is in w or in dx, and a value that is not
	// finite stays so through every later step on its entry. A finite
	// value's exponent field is not all ones.
	var e uint64
	for _, v := range w {
		e |= math.Float64bits(v)>>52&0x7ff + 1
	}
	for _, v := range dx {
		e |= math.Float64bits(v)>>52&0x7ff + 1
	}
	if e&0x800 != 0 {
		s.tally.nonFinite++
		return false
	}
	s.tally.free++
	return true
}

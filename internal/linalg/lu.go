package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorisation encounters a pivot that is
// numerically zero.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an in-place LU factorisation with partial pivoting (Doolittle
// form, PA = LU). The factorisation can be reused for multiple right-hand
// sides, which is the common pattern in transient simulation where the
// Jacobian is factored once per Newton iteration and solved repeatedly.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorisation of a. The input matrix is not
// modified. Factor returns ErrSingular when a pivot smaller than a tiny
// absolute threshold is found.
//
// Factor allocates a fresh copy of a on every call; hot loops that factor
// the same-sized system repeatedly should use an LUWorkspace instead.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("linalg: Factor requires a square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n)}
	var err error
	f.sign, err = factorInPlace(f.lu, f.piv)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// factorInPlace performs the Doolittle LU factorisation with partial
// pivoting directly on m, recording the row permutation in piv (which must
// have length m.Rows). It returns the permutation sign, or ErrSingular when
// a pivot is numerically zero, in which case m and piv hold a partial,
// unusable factorisation.
func factorInPlace(m *Matrix, piv []int) (int, error) {
	n := m.Rows
	lu := m.Data
	sign := 1
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k.
		p := k
		max := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max < 1e-300 {
			return sign, ErrSingular
		}
		if p != k {
			for c := 0; c < n; c++ {
				lu[k*n+c], lu[p*n+c] = lu[p*n+c], lu[k*n+c]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			row := lu[i*n : (i+1)*n]
			krow := lu[k*n : (k+1)*n]
			for c := k + 1; c < n; c++ {
				row[c] -= m * krow[c]
			}
		}
	}
	return sign, nil
}

// LUWorkspace is a reusable LU factorisation buffer for n×n systems: the
// factor matrix and pivot vector are allocated once and every Factor call
// overwrites them in place, so repeated factor/solve cycles — one per
// Newton iteration in the simulator's inner loops — allocate nothing. The
// arithmetic is identical to Factor/Solve, so results are bit-for-bit the
// same.
//
// A workspace is not safe for concurrent use.
type LUWorkspace struct {
	f LU
}

// NewLUWorkspace returns a workspace for factoring n×n matrices.
func NewLUWorkspace(n int) *LUWorkspace {
	return &LUWorkspace{f: LU{lu: NewMatrix(n, n), piv: make([]int, n), sign: 1}}
}

// Size returns the system dimension n the workspace was built for.
func (w *LUWorkspace) Size() int { return w.f.lu.Rows }

// Factor copies a into the workspace buffer and factors it in place,
// replacing any previous factorisation. It allocates nothing. On
// ErrSingular the stored factorisation is unusable until the next
// successful Factor.
func (w *LUWorkspace) Factor(a *Matrix) error {
	w.f.lu.CopyFrom(a) // panics on shape mismatch
	var err error
	w.f.sign, err = factorInPlace(w.f.lu, w.f.piv)
	return err
}

// SolveInto solves A·x = b into dst without allocating. dst and b must not
// alias and must have length Size.
func (w *LUWorkspace) SolveInto(dst, b []float64) {
	w.f.Permute(dst, b)
	w.f.SolveInPlace(dst)
}

// Det returns the determinant of the currently factored matrix.
func (w *LUWorkspace) Det() float64 { return w.f.Det() }

// Buffer returns the workspace's factor buffer, Size² values, for a
// caller that factors a block of its own in place. Writing to it leaves
// the stored factorisation unusable until the next successful Factor, as
// a failed Factor does.
func (w *LUWorkspace) Buffer() []float64 { return w.f.lu.Data }

// Solve solves A x = b for x using the stored factorisation. b is not
// modified.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: Solve length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	f.SolveInPlace(x)
	return x
}

// SolveInPlace performs forward and backward substitution on a vector that
// has already been permuted according to the pivot order. Most callers want
// Solve; SolveInPlace exists for allocation-free inner loops where the
// caller applies the permutation itself (see Permute).
func (f *LU) SolveInPlace(x []float64) {
	n := f.lu.Rows
	lu := f.lu.Data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu[i*n : i*n+i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s
	}
	// Backward substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// Permute writes P*b into dst following the pivot order of the
// factorisation. dst and b must not alias.
func (f *LU) Permute(dst, b []float64) {
	for i := range dst {
		dst[i] = b[f.piv[i]]
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.Rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// SolveMatrix solves A X = B column by column and returns X.
func (f *LU) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != f.lu.Rows {
		panic("linalg: SolveMatrix shape mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	for c := 0; c < b.Cols; c++ {
		x := f.Solve(b.Col(c))
		out.SetCol(c, x)
	}
	return out
}

// Package linalg provides the small dense linear-algebra kernel used by the
// circuit simulator and the model-order-reduction engine: dense matrices,
// LU factorisation with partial pivoting, and modified Gram–Schmidt
// orthonormalisation for block Krylov subspaces.
//
// The matrices involved in static noise analysis are small (tens to a few
// hundred unknowns for a noise cluster, around a dozen for a reduced
// macromodel), so a cache-friendly dense row-major representation is both
// simpler and faster than a sparse one at this scale.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero-initialised r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add adds v to the element at row r, column c. It is the natural primitive
// for MNA stamping.
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Zero clears every element in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with the contents of src. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		orow := out.Data[r*b.Cols : (r+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for c, bv := range brow {
				orow[c] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("linalg: MulVec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		s := 0.0
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// MulVecInto computes m*x into dst, which must have length m.Rows. Every
// element is its row's products summed left to right from +0, exactly as
// MulVec sums them, but four rows share each pass over x: their four sums
// are independent, so their additions overlap instead of each waiting on
// the last, and every x[c] is loaded once for the four. A final block of
// 1–3 rows repeats its last row in the spare lanes, which only recompute
// that row's sum.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if m.Cols != len(x) || m.Rows != len(dst) {
		panic("linalg: MulVecInto shape mismatch")
	}
	n, last := len(x), m.Rows-1
	for r := 0; r <= last; r += 4 {
		r1, r2, r3 := min(r+1, last), min(r+2, last), min(r+3, last)
		a0 := m.Data[r*n:][:n]
		a1 := m.Data[r1*n:][:n]
		a2 := m.Data[r2*n:][:n]
		a3 := m.Data[r3*n:][:n]
		var s0, s1, s2, s3 float64
		for c, xc := range x {
			s0 += a0[c] * xc
			s1 += a1[c] * xc
			s2 += a2[c] * xc
			s3 += a3[c] * xc
		}
		dst[r], dst[r1], dst[r2], dst[r3] = s0, s1, s2, s3
	}
}

// AddScaled computes m += alpha*a in place. The shapes must match.
func (m *Matrix) AddScaled(alpha float64, a *Matrix) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("linalg: AddScaled shape mismatch")
	}
	for i, v := range a.Data {
		m.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Col returns a copy of column c.
func (m *Matrix) Col(c int) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Data[r*m.Cols+c]
	}
	return out
}

// SetCol overwrites column c with v.
func (m *Matrix) SetCol(c int, v []float64) {
	if len(v) != m.Rows {
		panic("linalg: SetCol length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		m.Data[r*m.Cols+c] = v[r]
	}
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			fmt.Fprintf(&b, "% .4e ", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AxpyVec computes y += alpha*x in place.
func AxpyVec(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AxpyVec length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies v by alpha in place.
func ScaleVec(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

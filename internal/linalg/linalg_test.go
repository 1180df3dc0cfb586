package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4)
	m.Add(1, 2, 1)
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := m.At(1, 2); got != -3 {
		t.Errorf("At(1,2) = %v, want -3", got)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases original storage")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != -3 {
		t.Errorf("Transpose wrong: %+v", tr)
	}
}

func TestIdentityMul(t *testing.T) {
	id := Identity(4)
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = float64(i) - 7.5
	}
	p := Mul(id, a)
	for i := range a.Data {
		if p.Data[i] != a.Data[i] {
			t.Fatalf("I*A != A at %d: %v vs %v", i, p.Data[i], a.Data[i])
		}
	}
	q := Mul(a, id)
	for i := range a.Data {
		if q.Data[i] != a.Data[i] {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	p := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if p.Data[i] != w {
			t.Errorf("Mul[%d] = %v, want %v", i, p.Data[i], w)
		}
	}
}

func TestMulVec(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 0, -1, 2, 1, 0}}
	got := a.MulVec([]float64{3, 4, 5})
	if got[0] != -2 || got[1] != 10 {
		t.Errorf("MulVec = %v, want [-2 10]", got)
	}
	dst := make([]float64, 2)
	a.MulVecInto(dst, []float64{3, 4, 5})
	if dst[0] != -2 || dst[1] != 10 {
		t.Errorf("MulVecInto = %v", dst)
	}
}

// TestMulVecIntoMatchesRowOrder pins MulVecInto's four-row blocking to the
// plain row-by-row product bit for bit, on every shape up to 20×20: each
// element must be its row summed left to right from +0. Entries span 32
// decades, so a different summation order rounds differently, and a sixth
// of them are signed zeros, so a sum seeded from its first product instead
// of +0 returns −0 where the row order gives +0.
func TestMulVecIntoMatchesRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, rng.NormFloat64())
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(32)-16))
		}
	}
	for rows := 0; rows <= 20; rows++ {
		for cols := 0; cols <= 20; cols++ {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = value()
			}
			if rows > 0 {
				// A row of −0 products, which must still sum to +0.
				for c := 0; c < cols; c++ {
					m.Set(rows-1, c, math.Copysign(0, -1))
				}
			}
			x := make([]float64, cols)
			for i := range x {
				x[i] = math.Abs(value())
			}
			want := make([]float64, rows)
			for r := range want {
				s := 0.0
				for c := 0; c < cols; c++ {
					s += m.At(r, c) * x[c]
				}
				want[r] = s
			}
			dst := make([]float64, rows)
			for i := range dst {
				dst[i] = math.NaN()
			}
			m.MulVecInto(dst, x)
			for r := range want {
				if math.Float64bits(dst[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%dx%d: row %d = %v (%#x), row order gives %v (%#x)",
						rows, cols, r, dst[r], math.Float64bits(dst[r]), want[r], math.Float64bits(want[r]))
				}
			}
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3, Data: []float64{
		2, 1, 1,
		1, 3, 2,
		1, 0, 0,
	}}
	b := []float64{4, 5, 6}
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	x := f.Solve(b)
	// Check residual A x - b.
	r := a.MulVec(x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-12 {
			t.Errorf("residual[%d] = %v", i, r[i]-b[i])
		}
	}
	// Known solution: x = [6, 15, -23].
	want := []float64{6, 15, -23}
	for i, w := range want {
		if math.Abs(x[i]-w) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], w)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := Factor(a); err == nil {
		t.Error("Factor of singular matrix succeeded, want ErrSingular")
	}
}

func TestLUDet(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{3, 1, 4, 2}}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-2) > 1e-12 {
		t.Errorf("Det = %v, want 2", d)
	}
}

func TestSolveMatrixIdentityGivesInverse(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 7, 2, 6}}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := f.SolveMatrix(Identity(2))
	// A * inv(A) == I
	p := Mul(a, inv)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if math.Abs(p.At(r, c)-want) > 1e-12 {
				t.Errorf("A*inv(A)[%d,%d] = %v", r, c, p.At(r, c))
			}
		}
	}
}

// Property: LU solves random diagonally dominant systems to tight residual.
func TestLUSolveRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			sum := 0.0
			for c := 0; c < n; c++ {
				if r == c {
					continue
				}
				v := rng.NormFloat64()
				a.Set(r, c, v)
				sum += math.Abs(v)
			}
			a.Set(r, r, sum+1+rng.Float64()) // strictly diagonally dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		x := lu.Solve(b)
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOrthonormalize(t *testing.T) {
	var basis [][]float64
	v1, ok := Orthonormalize(basis, []float64{3, 0, 0})
	if !ok {
		t.Fatal("first vector rejected")
	}
	if math.Abs(Norm2(v1)-1) > 1e-14 {
		t.Errorf("norm = %v", Norm2(v1))
	}
	basis = append(basis, v1)
	v2, ok := Orthonormalize(basis, []float64{1, 2, 0})
	if !ok {
		t.Fatal("independent vector rejected")
	}
	if math.Abs(Dot(v1, v2)) > 1e-12 {
		t.Errorf("v1·v2 = %v", Dot(v1, v2))
	}
	basis = append(basis, v2)
	// A dependent vector must be rejected.
	if _, ok := Orthonormalize(basis, []float64{2, 4, 0}); ok {
		t.Error("dependent vector accepted")
	}
}

// Property: a basis grown one vector at a time by Orthonormalize, as the
// Krylov reduction grows its basis, always has orthonormal columns.
func TestOrthonormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(10)
		cols := 1 + rng.Intn(rows)
		var q [][]float64
		for c := 0; c < cols; c++ {
			v := make([]float64, rows)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			if w, ok := Orthonormalize(q, v); ok {
				q = append(q, w)
			}
		}
		for i := range q {
			for j := 0; j <= i; j++ {
				d := Dot(q[i], q[j])
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(d-want) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Errorf("Norm2 = %v", Norm2([]float64{3, 4}))
	}
	y := []float64{1, 1, 1}
	AxpyVec(2, a, y)
	if y[2] != 7 {
		t.Errorf("AxpyVec = %v", y)
	}
	ScaleVec(0.5, y)
	if y[2] != 3.5 {
		t.Errorf("ScaleVec = %v", y)
	}
}

func BenchmarkLUFactor64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	a := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		sum := 0.0
		for c := 0; c < n; c++ {
			v := rng.NormFloat64()
			a.Set(r, c, v)
			sum += math.Abs(v)
		}
		a.Add(r, r, sum+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a); err != nil {
			b.Fatal(err)
		}
	}
}

// --- LUWorkspace -----------------------------------------------------------

func TestLUWorkspaceMatchesFactorBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	ws := NewLUWorkspace(n)
	if ws.Size() != n {
		t.Fatalf("Size = %d, want %d", ws.Size(), n)
	}
	b := make([]float64, n)
	dst := make([]float64, n)
	for trial := 0; trial < 20; trial++ {
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well away from singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, 10)
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Solve(b)
		if err := ws.Factor(a); err != nil {
			t.Fatal(err)
		}
		ws.SolveInto(dst, b)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %v (workspace) vs %v (Factor)", trial, i, dst[i], want[i])
			}
		}
		if d, w := f.Det(), ws.Det(); d != w {
			t.Fatalf("trial %d: det %v vs %v", trial, d, w)
		}
	}
}

func TestLUWorkspaceSingular(t *testing.T) {
	ws := NewLUWorkspace(3)
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1) // rank 1
	if err := ws.Factor(a); err != ErrSingular {
		t.Fatalf("Factor of singular matrix: err = %v, want ErrSingular", err)
	}
	// The workspace must recover on the next successful Factor.
	if err := ws.Factor(Identity(3)); err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	dst := make([]float64, 3)
	ws.SolveInto(dst, b)
	for i := range b {
		if dst[i] != b[i] {
			t.Fatalf("identity solve: x[%d] = %v", i, dst[i])
		}
	}
}

func TestLUWorkspaceAllocFree(t *testing.T) {
	const n = 10
	ws := NewLUWorkspace(n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(i+2))
		if i > 0 {
			a.Set(i, i-1, 1)
		}
	}
	b := make([]float64, n)
	dst := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ws.Factor(a); err != nil {
			t.Fatal(err)
		}
		ws.SolveInto(dst, b)
	})
	if allocs != 0 {
		t.Fatalf("workspace factor+solve allocates %.1f objects, want 0", allocs)
	}
}

package linalg

// Orthonormalize projects v against the orthonormal columns already stored
// in basis (modified Gram–Schmidt, applied twice for numerical robustness)
// and normalises the remainder. It returns the normalised vector and true,
// or nil and false when v is numerically inside the span of the basis.
//
// basis is a list of unit-norm vectors of equal length; v is not modified.
func Orthonormalize(basis [][]float64, v []float64) ([]float64, bool) {
	w := make([]float64, len(v))
	copy(w, v)
	norm0 := Norm2(w)
	if norm0 == 0 {
		return nil, false
	}
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			h := Dot(b, w)
			if h != 0 {
				AxpyVec(-h, b, w)
			}
		}
	}
	norm := Norm2(w)
	// A candidate that lost more than ~7 digits to cancellation is treated
	// as linearly dependent; keeping it would poison the Krylov basis.
	if norm < 1e-7*norm0 || norm == 0 {
		return nil, false
	}
	ScaleVec(1/norm, w)
	return w, true
}

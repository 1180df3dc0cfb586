package linalg

import (
	"fmt"
	"testing"
)

// Factor-vs-substitute benchmarks at noise-cluster sizes: the transient
// linear fast path replaces a per-step Factor (O(n³)) with a per-step
// SolveInto against one factorisation (O(n²)); these pin the ratio that
// saving rides on.

func benchSystem(n int) (*Matrix, []float64) {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 4)
		if i+1 < n {
			m.Set(i, i+1, -1)
			m.Set(i+1, i, -1)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	return m, b
}

func benchLUFactor(b *testing.B, n int) {
	m, _ := benchSystem(n)
	lu := NewLUWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lu.Factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLUSolveInto(b *testing.B, n int) {
	m, rhs := benchSystem(n)
	lu := NewLUWorkspace(n)
	if err := lu.Factor(m); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.SolveInto(dst, rhs)
	}
}

func BenchmarkLUWorkspaceFactor16(b *testing.B)    { benchLUFactor(b, 16) }
func BenchmarkLUWorkspaceFactor64(b *testing.B)    { benchLUFactor(b, 64) }
func BenchmarkLUWorkspaceSolveInto16(b *testing.B) { benchLUSolveInto(b, 16) }
func BenchmarkLUWorkspaceSolveInto64(b *testing.B) { benchLUSolveInto(b, 64) }

// BenchmarkMulVecInto times the macromodel engine's once-per-step product,
// the propagator times the reduced state, at the reduced orders Q = 11 and
// Q = 15 of the generated designs' clusters.
func BenchmarkMulVecInto(b *testing.B) {
	for _, n := range []int{11, 15} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			m, x := benchSystem(n)
			for i := range m.Data {
				m.Data[i] += float64(i%5) * 0.125
			}
			dst := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecInto(dst, x)
			}
		})
	}
}

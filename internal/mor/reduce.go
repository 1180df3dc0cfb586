package mor

import (
	"fmt"

	"stanoise/internal/linalg"
)

// Reduced is a port-level macromodel of an RC network:
//
//	Cr·ẋ + Gr·x = B·i(t),   v_port = Bᵀ·x
//
// where i(t) are the currents injected into the ports. It is the circuit
// the paper draws as the coupled S-model between the victim driver VCCS and
// the aggressor Thevenin sources.
type Reduced struct {
	Gr, Cr *linalg.Matrix // q×q reduced conductance and capacitance
	B      *linalg.Matrix // q×p projected port incidence
	Ports  []string
	Q      int // reduced order
}

// s0 is the real expansion point of every reduction in rad/s (≈3 GHz),
// matching the spectral content of nanosecond-scale noise events.
const s0 = 2e10

// Options tunes the reduction.
type Options struct {
	// Moments is the number of block moments matched per port (Krylov
	// blocks). Default 3.
	Moments int
}

func (o Options) normalize() Options {
	if o.Moments <= 0 {
		o.Moments = 3
	}
	return o
}

// Reduce builds a reduced-order macromodel of net seen from the given
// ports. The projection is a block Arnoldi iteration on
// (G + s0·C)⁻¹·C with starting block (G + s0·C)⁻¹·B, orthonormalised with
// modified Gram–Schmidt; the congruence transform Gr = XᵀGX, Cr = XᵀCX
// preserves passivity.
func Reduce(net *Network, ports []string, opts Options) (*Reduced, error) {
	opts = opts.normalize()
	bFull, err := net.incidence(ports)
	if err != nil {
		return nil, err
	}
	n := net.Size()
	p := len(ports)

	// Shifted system matrix G + s0·C.
	a := net.G.Clone()
	a.AddScaled(s0, net.C)
	lu, err := linalg.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("mor: expansion matrix singular (s0=%g): %w", s0, err)
	}

	var basis [][]float64
	// DC augmentation: per-island constant vectors span the null space of
	// G, so including them makes the reduced Gr exactly singular along the
	// physical "whole wire shifts together" directions and the late-time
	// settling exact, at the cost of one basis vector per wire.
	for _, comp := range net.islands() {
		v := make([]float64, n)
		for _, i := range comp {
			v[i] = 1
		}
		if w, ok := linalg.Orthonormalize(basis, v); ok {
			basis = append(basis, w)
		}
	}

	// Block Arnoldi.
	block := make([][]float64, 0, p)
	for k := 0; k < p; k++ {
		r := lu.Solve(bFull.Col(k))
		block = append(block, r)
	}
	for m := 0; m < opts.Moments; m++ {
		next := make([][]float64, 0, len(block))
		for _, v := range block {
			if w, ok := linalg.Orthonormalize(basis, v); ok {
				basis = append(basis, w)
				next = append(next, w)
			}
		}
		if len(next) == 0 || m == opts.Moments-1 {
			break
		}
		// Next block: A·w = (G+s0C)⁻¹ C w.
		block = block[:0]
		for _, w := range next {
			cw := net.C.MulVec(w)
			block = append(block, lu.Solve(cw))
		}
	}
	if len(basis) == 0 {
		return nil, fmt.Errorf("mor: empty projection basis")
	}

	q := len(basis)
	x := linalg.NewMatrix(n, q)
	for c, b := range basis {
		x.SetCol(c, b)
	}
	xt := x.Transpose()
	red := &Reduced{
		Gr:    linalg.Mul(xt, linalg.Mul(net.G, x)),
		Cr:    linalg.Mul(xt, linalg.Mul(net.C, x)),
		B:     linalg.Mul(xt, bFull),
		Ports: append([]string(nil), ports...),
		Q:     q,
	}
	return red, nil
}

// PortImpedance evaluates Z(s) = Bᵀ(Gr + s·Cr)⁻¹B at a real s, for
// comparison against the full network.
func (r *Reduced) PortImpedance(s float64) (*linalg.Matrix, error) {
	a := r.Gr.Clone()
	a.AddScaled(s, r.Cr)
	lu, err := linalg.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("mor: reduced Gr+sCr singular at s=%g: %w", s, err)
	}
	x := lu.SolveMatrix(r.B)
	return linalg.Mul(r.B.Transpose(), x), nil
}

// PortVoltages maps a reduced state to the port voltage vector Bᵀx.
func (r *Reduced) PortVoltages(x []float64) []float64 {
	out := make([]float64, len(r.Ports))
	for k := 0; k < len(r.Ports); k++ {
		s := 0.0
		for i := 0; i < r.Q; i++ {
			s += r.B.At(i, k) * x[i]
		}
		out[k] = s
	}
	return out
}

// Package mor implements moment-matching model-order reduction of linear RC
// interconnect networks onto their ports — the "coupled S-model" of the
// driving-point impedances used in the paper's noise-cluster macromodel
// (Figure 1, following its reference [8]).
//
// The construction is a PRIMA-style block-Arnoldi congruence projection: it
// matches block moments of the port admittance about a real expansion point
// and, because it is a congruence transform with an orthonormal basis,
// preserves passivity of the RC network. The projection basis is augmented
// with the per-island DC vectors so the reduced model settles to exact DC
// levels after a noise event (see Reduce).
package mor

import (
	"fmt"

	"stanoise/internal/linalg"
)

// Network is a linear RC network described by its conductance and
// capacitance matrices over named nodes. Ground is implicit: elements to
// ground stamp only the diagonal.
type Network struct {
	G, C  *linalg.Matrix
	Nodes []string
	index map[string]int
}

// NewNetwork creates an empty network over the given node names.
func NewNetwork(nodes []string) *Network {
	n := len(nodes)
	net := &Network{
		G:     linalg.NewMatrix(n, n),
		C:     linalg.NewMatrix(n, n),
		Nodes: append([]string(nil), nodes...),
		index: make(map[string]int, n),
	}
	for i, name := range nodes {
		if name == "0" || name == "" {
			panic("mor: ground is implicit and cannot be a network node")
		}
		if _, dup := net.index[name]; dup {
			panic(fmt.Sprintf("mor: duplicate node %q", name))
		}
		net.index[name] = i
	}
	return net
}

// Size returns the number of (non-ground) nodes.
func (n *Network) Size() int { return len(n.Nodes) }

// AddR stamps a resistor between nodes a and b; use "0" for ground.
func (n *Network) AddR(a, b string, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("mor: non-positive resistance %g", r))
	}
	n.stamp(n.G, a, b, 1/r)
}

// AddC stamps a capacitor between nodes a and b; use "0" for ground.
func (n *Network) AddC(a, b string, c float64) {
	if c < 0 {
		panic(fmt.Sprintf("mor: negative capacitance %g", c))
	}
	if c == 0 {
		return
	}
	n.stamp(n.C, a, b, c)
}

func (n *Network) stamp(m *linalg.Matrix, a, b string, v float64) {
	ia, ib := -1, -1
	if a != "0" {
		i, ok := n.index[a]
		if !ok {
			panic(fmt.Sprintf("mor: unknown node %q", a))
		}
		ia = i
	}
	if b != "0" {
		i, ok := n.index[b]
		if !ok {
			panic(fmt.Sprintf("mor: unknown node %q", b))
		}
		ib = i
	}
	if ia >= 0 {
		m.Add(ia, ia, v)
	}
	if ib >= 0 {
		m.Add(ib, ib, v)
	}
	if ia >= 0 && ib >= 0 {
		m.Add(ia, ib, -v)
		m.Add(ib, ia, -v)
	}
}

// incidence builds the n×p port incidence matrix: column k selects port k's
// node.
func (n *Network) incidence(ports []string) (*linalg.Matrix, error) {
	b := linalg.NewMatrix(n.Size(), len(ports))
	for k, p := range ports {
		i, ok := n.index[p]
		if !ok {
			return nil, fmt.Errorf("mor: port %q is not a network node", p)
		}
		b.Set(i, k, 1)
	}
	return b, nil
}

// islands returns the connected components of the resistive graph — the
// sets of nodes joined by resistors. Capacitive coupling does not join
// islands; in a noise cluster each wire is one island.
func (n *Network) islands() [][]int {
	sz := n.Size()
	visited := make([]bool, sz)
	var comps [][]int
	for start := 0; start < sz; start++ {
		if visited[start] {
			continue
		}
		comp := []int{start}
		visited[start] = true
		for q := 0; q < len(comp); q++ {
			u := comp[q]
			for v := 0; v < sz; v++ {
				if !visited[v] && n.G.At(u, v) != 0 {
					visited[v] = true
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// PortImpedance evaluates the full network's port impedance matrix
// Z(s) = Bᵀ (G + sC)⁻¹ B at a real frequency point s, for validation of
// reduced models.
func (n *Network) PortImpedance(ports []string, s float64) (*linalg.Matrix, error) {
	b, err := n.incidence(ports)
	if err != nil {
		return nil, err
	}
	a := n.G.Clone()
	a.AddScaled(s, n.C)
	lu, err := linalg.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("mor: G+sC singular at s=%g: %w", s, err)
	}
	x := lu.SolveMatrix(b)
	return linalg.Mul(b.Transpose(), x), nil
}

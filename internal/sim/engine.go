// Package sim implements the transistor-level circuit simulator used as the
// golden reference throughout the repository — the stand-in for the ELDO™
// runs in the paper (see DESIGN.md §2).
//
// It is a classical MNA (modified nodal analysis) engine: node voltages plus
// voltage-source branch currents are the unknowns, non-linear devices are
// handled with damped Newton–Raphson, capacitors with trapezoidal companion
// models, and DC operating points with gmin stepping as a fallback.
// Matrices are dense; noise clusters are small (tens of nodes), where dense
// LU beats sparse bookkeeping.
//
// The engine is split into two phases (DESIGN.md §7). Compile resolves a
// circuit into an immutable Program — index-resolved node table and
// per-device stamp plans — and a Session against that Program owns the
// preallocated matrices, vectors and LU workspace, re-running with mutated
// parameters (SetSource/SetLoad/SetGuess) at zero rebuild cost. A session
// runs in one of three ways (DESIGN.md §23): RunDC solves the operating
// point, RunTransient steps the fixed grid from it (optionally stopping
// early), and RunTransientAdaptive steps an LTE-controlled time axis. Each
// fills a caller-owned result, so every caller — a one-off solve as much
// as a characterisation sweep — compiles, opens a session and runs.
package sim

import (
	"errors"
	"fmt"

	"stanoise/internal/circuit"
	"stanoise/internal/wave"
)

// ErrNoConvergence is returned when Newton iteration fails to converge.
var ErrNoConvergence = errors.New("sim: Newton iteration did not converge")

// idx maps a node to its unknown index, or -1 for ground.
func idx(n circuit.NodeID) int { return int(n) }

// DCResult holds an operating point.
type DCResult struct {
	c *circuit.Circuit
	X []float64 // node voltages then branch currents
	n int
}

// NodeV returns the DC voltage of a named node.
func (r *DCResult) NodeV(name string) float64 {
	id, ok := r.c.LookupNode(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown node %q", name))
	}
	if id == circuit.Ground {
		return 0
	}
	return r.X[id]
}

// BranchI returns the branch current of the named voltage source (flowing
// into the source at its positive terminal).
func (r *DCResult) BranchI(vsrc string) float64 {
	k := r.c.VSourceIndex(vsrc)
	if k < 0 {
		panic(fmt.Sprintf("sim: unknown voltage source %q", vsrc))
	}
	return r.X[r.n+k]
}

// SourceCurrent is BranchI by compiled handle instead of name: a direct
// index into the unknown vector, with no per-call name lookup. It is the
// probe a RunDC sweep loop uses to stay allocation-free and O(1) per
// grid point.
func (r *DCResult) SourceCurrent(h SourceHandle) float64 {
	return r.X[r.n+int(h)]
}

// Result holds a transient simulation: node voltages sampled on the time
// grid.
type Result struct {
	c     *circuit.Circuit
	Times []float64
	nodeV [][]float64 // [node][step]
}

// MemoryBytes estimates the storage a Result holds: the capacity of its
// time axis and of every node series. RunTransient reuses that
// storage, so a Result kept for the next run keeps it resident.
func (r *Result) MemoryBytes() int64 {
	n := cap(r.Times)
	for _, v := range r.nodeV {
		n += cap(v)
	}
	return int64(n) * 8
}

// reset rebinds a caller-owned Result to a circuit and truncates every
// series to length zero, reusing backing storage when its capacity covers
// capHint points. After the first RunTransient on a given Result, later
// runs of the same (or smaller) size allocate nothing here.
func (r *Result) reset(c *circuit.Circuit, n, capHint int) {
	r.c = c
	if cap(r.Times) < capHint {
		r.Times = make([]float64, 0, capHint)
	}
	r.Times = r.Times[:0]
	if cap(r.nodeV) < n {
		r.nodeV = make([][]float64, n)
	}
	r.nodeV = r.nodeV[:n]
	for i := range r.nodeV {
		if cap(r.nodeV[i]) < capHint {
			r.nodeV[i] = make([]float64, 0, capHint)
		}
		r.nodeV[i] = r.nodeV[i][:0]
	}
}

// record appends one time point. A fixed-grid run's appends stay within
// the capacity reserved by reset, so its steps record allocation-free; an
// adaptive run that outgrows it grows the series once, and a later run of
// the same length on the same Result records allocation-free again.
func (r *Result) record(t float64, x []float64) {
	r.Times = append(r.Times, t)
	for i := range r.nodeV {
		r.nodeV[i] = append(r.nodeV[i], x[i])
	}
}

// Waveform returns the voltage waveform of a named node.
func (r *Result) Waveform(node string) *wave.Waveform {
	id, ok := r.c.LookupNode(node)
	if !ok {
		panic(fmt.Sprintf("sim: unknown node %q", node))
	}
	if id == circuit.Ground {
		return wave.Constant(0)
	}
	return wave.FromPoints(r.Times, r.nodeV[id])
}

// At returns the voltage of node at the given step index.
func (r *Result) At(node string, step int) float64 {
	id, _ := r.c.LookupNode(node)
	if id == circuit.Ground {
		return 0
	}
	return r.nodeV[id][step]
}

// Steps returns the number of recorded time points.
func (r *Result) Steps() int { return len(r.Times) }

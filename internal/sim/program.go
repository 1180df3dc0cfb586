package sim

import (
	"fmt"

	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/wave"
)

// Program is an immutable compiled form of a circuit: node names resolved
// to matrix indices, one stamp plan per device, and handles for the
// parameters a characterisation sweep mutates between runs (voltage-source
// waveforms, capacitor values, initial-guess seeds).
//
// Compile once per topology, then open any number of Sessions against the
// Program; each Session owns the mutable solver state (matrices, vectors,
// LU workspace) and can be re-run with different parameters without paying
// netlist assembly or index resolution again. The source circuit must not
// be modified after Compile — the Program aliases its node table and
// element metadata.
type Program struct {
	ckt *circuit.Circuit

	n    int // node unknowns
	m    int // voltage-source branch unknowns
	size int

	// linear records, once at Compile time, that the program contains no
	// nonlinear device stamps (MOSFETs, table VCCSs): its Jacobian never
	// depends on the iterate, so a transient run can factor the system
	// matrix once and back-substitute per timestep (see
	// Session.RunTransient's linear fast path).
	linear bool

	// cert is the shape half of the stop certificate (DESIGN.md §31).
	cert certPlan

	// lr is the shape of the factored transient step loop: the device rows
	// and columns and whether the path is taken (DESIGN.md §17). A linear
	// program is its r = 0 case.
	lr lowRankPlan

	// held is the held-node table: for each node, the voltage source that
	// holds it against ground, or src −1 for a free node. floating reports
	// a source that holds no node, and twice a node that two sources hold.
	// The Newton seeds, both shape plans and the free-node solve
	// (DESIGN.md §32) all read it.
	held            []heldNode
	floating, twice bool

	// Index-resolved stamp plans. Ground is -1, matching circuit.Ground.
	res    []resPlan
	caps   []capPlan
	nlcaps []nlCapPlan // voltage-dependent gate caps, re-stamped per Newton iteration
	mos    []mosPlan
	vccs   []vccsPlan
	vsrc   []twoTerm // branch row for source k is n+k
	isrc   []twoTerm

	// capBranches are the caps' unordered node pairs, each as its first
	// cap's terminals, and capBranchOf each cap's pair: the adaptive run's
	// error estimate is one per branch.
	capBranches []capPlan
	capBranchOf []int

	// Compile-time parameter values. Sessions copy the mutable ones
	// (source waveforms, capacitances); current sources are fixed and read
	// straight from here.
	srcW0  []*wave.Waveform // voltage-source waveforms
	isrcW0 []*wave.Waveform // current-source waveforms
	capC0  []float64        // capacitances (F)

	srcIdx map[string]int // voltage-source name -> handle
	capIdx map[string]int // capacitor name -> handle
}

type resPlan struct {
	a, b int
	g    float64
}

type capPlan struct{ a, b int }

// nlCapPlan is a voltage-dependent capacitor stamp: unlike capPlan, whose
// companion conductance is pre-stamped into the transient system matrix
// once per run, an nlCapPlan re-evaluates C(u) and dC/du from the current
// iterate inside every Newton assembly (charge-conserving companion form,
// see Session.assemble). u = v(a) − v(b).
type nlCapPlan struct {
	a, b int
	cp   device.CapParams
}

type mosPlan struct {
	d, g, s int
	p       device.Params
}

type vccsPlan struct {
	out, ctrl int
	f         circuit.VCCSFunc
}

type twoTerm struct{ pos, neg int }

// heldNode is one entry of the held-node table: src is the index of the
// ground-referenced voltage source on the node, or −1, and sign its
// incidence there: +1 when the node is the source's positive terminal
// (`V n 0`), −1 when it is the negative one (`V 0 n`). The source then
// holds the node at sign·V.
type heldNode struct {
	src  int
	sign float64
}

// SourceHandle identifies a voltage source of a compiled Program for
// parameter mutation between Session runs.
type SourceHandle int

// CapHandle identifies a capacitor of a compiled Program for load mutation
// between Session runs.
type CapHandle int

// Compile resolves a circuit into an immutable Program. The circuit must
// not be modified afterwards.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{
		ckt:    c,
		n:      c.NumNodes(),
		m:      len(c.VSources),
		srcIdx: make(map[string]int, len(c.VSources)),
		capIdx: make(map[string]int, len(c.Capacitors)),
	}
	p.size = p.n + p.m
	for _, r := range c.Resistors {
		p.res = append(p.res, resPlan{a: idx(r.A), b: idx(r.B), g: 1 / r.R})
	}
	for _, cp := range c.Capacitors {
		p.caps = append(p.caps, capPlan{a: idx(cp.A), b: idx(cp.B)})
		p.capC0 = append(p.capC0, cp.C)
	}
	for i := range c.Capacitors {
		p.capIdx[c.Capacitors[i].Name] = i
	}
	for i := range c.Mosfets {
		mf := &c.Mosfets[i]
		p.mos = append(p.mos, mosPlan{d: idx(mf.D), g: idx(mf.G), s: idx(mf.S), p: mf.P})
		// Gate-charge caps riding on the device. Co = 0 is the
		// zero-modulation reduction: the cap is constant, so it joins the
		// ordinary pre-stamped capPlan list (registered under
		// "<name>.cgd"/"<name>.cgs") and the program keeps the precomputed
		// companion fast path — bit-identical to an explicit AddC.
		p.compileMOSCap(mf.Name+".cgd", mf.P.CGD, idx(mf.G), idx(mf.D))
		p.compileMOSCap(mf.Name+".cgs", mf.P.CGS, idx(mf.G), idx(mf.S))
	}
	for i := range c.VCCSs {
		e := &c.VCCSs[i]
		p.vccs = append(p.vccs, vccsPlan{out: idx(e.Out), ctrl: idx(e.Ctrl), f: e.F})
	}
	for k, v := range c.VSources {
		p.vsrc = append(p.vsrc, twoTerm{pos: idx(v.Pos), neg: idx(v.Neg)})
		p.srcW0 = append(p.srcW0, v.W)
		p.srcIdx[v.Name] = k
	}
	for _, is := range c.ISources {
		p.isrc = append(p.isrc, twoTerm{pos: idx(is.Pos), neg: idx(is.Neg)})
		p.isrcW0 = append(p.isrcW0, is.W)
	}
	p.linear = len(p.mos) == 0 && len(p.vccs) == 0 && len(p.nlcaps) == 0
	p.capBranches, p.capBranchOf = groupCapBranches(p.caps)
	p.planHeld()
	p.lr = p.planLowRank()
	p.cert = p.planCertificate()
	return p
}

// planHeld fills the held-node table. A source from a node to ground, in
// either orientation, holds that node; a source with both terminals off
// ground, or both on it, holds none. Where two sources hold one node the
// later one is its entry.
func (p *Program) planHeld() {
	p.held = make([]heldNode, p.n)
	for i := range p.held {
		p.held[i].src = -1
	}
	for k, v := range p.vsrc {
		node, sign := v.pos, 1.0
		if v.pos < 0 {
			node, sign = v.neg, -1
		}
		if node < 0 || (v.pos >= 0 && v.neg >= 0) {
			p.floating = true
			continue
		}
		if p.held[node].src >= 0 {
			p.twice = true
		}
		p.held[node] = heldNode{src: k, sign: sign}
	}
}

// compileMOSCap compiles one gate-charge capacitor of a MOSFET instance. A
// zero CapParams means the device has no gate-charge model and stamps
// nothing; Co = 0 reduces to a constant capPlan; otherwise the cap becomes
// an nlCapPlan re-evaluated per Newton iteration. u = v(a) − v(b) with a
// the gate node.
func (p *Program) compileMOSCap(name string, cp device.CapParams, a, b int) {
	if cp.IsZero() || a == b {
		return
	}
	if cp.Co == 0 {
		p.capIdx[name] = len(p.caps)
		p.caps = append(p.caps, capPlan{a: a, b: b})
		p.capC0 = append(p.capC0, cp.Cp)
		return
	}
	p.nlcaps = append(p.nlcaps, nlCapPlan{a: a, b: b, cp: cp})
}

// Linear reports whether the program contains no nonlinear device stamps —
// resistors, capacitors and independent sources only. Linear programs take
// the transient fast path: the system matrix is factored once per run and
// every timestep is a forward/back-substitution, with zero Newton
// iterations (see Session.RunTransient).
func (p *Program) Linear() bool { return p.linear }

// Circuit returns the source circuit, for node and probe name lookups.
func (p *Program) Circuit() *circuit.Circuit { return p.ckt }

// Size returns the number of MNA unknowns (nodes plus source branches).
func (p *Program) Size() int { return p.size }

// Source returns the handle of the named voltage source.
func (p *Program) Source(name string) (SourceHandle, bool) {
	k, ok := p.srcIdx[name]
	return SourceHandle(k), ok
}

// MustSource is Source for names known to exist; it panics otherwise.
func (p *Program) MustSource(name string) SourceHandle {
	h, ok := p.Source(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown voltage source %q", name))
	}
	return h
}

// Cap returns the handle of the named capacitor.
func (p *Program) Cap(name string) (CapHandle, bool) {
	k, ok := p.capIdx[name]
	return CapHandle(k), ok
}

// MustCap is Cap for names known to exist; it panics otherwise.
func (p *Program) MustCap(name string) CapHandle {
	h, ok := p.Cap(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown capacitor %q", name))
	}
	return h
}

// Package cell provides the transistor-level standard-cell library used for
// noise analysis: victim and aggressor drivers, and receivers.
//
// Cells are described by a declarative device table (topology plus relative
// sizing) from which the package derives everything the analysis needs:
// transistor netlists for the golden simulator, logic functions for state
// enumeration, pin capacitances for receiver loads, diffusion capacitance
// for driver output parasitics, and sensitised input states for worst-case
// noise propagation.
package cell

import (
	"fmt"
	"sort"

	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/tech"
)

// State assigns a boolean level to each input pin.
type State map[string]bool

// Clone returns a copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// String renders the state deterministically, e.g. "A=1,B=0".
func (s State) String() string {
	pins := make([]string, 0, len(s))
	for p := range s {
		pins = append(pins, p)
	}
	sort.Strings(pins)
	out := ""
	for i, p := range pins {
		if i > 0 {
			out += ","
		}
		v := "0"
		if s[p] {
			v = "1"
		}
		out += p + "=" + v
	}
	return out
}

// devSpec describes one transistor in a cell template. Node labels are
// symbolic: "out", "vdd", "gnd", input pin names, or internal nodes
// ("n1", "n2", ...). wMult scales the polarity's base width and already
// includes stack compensation (series devices are widened).
type devSpec struct {
	name    string
	kind    device.Kind
	d, g, s string
	wMult   float64
}

// spec is a cell template.
type spec struct {
	inputs []string
	devs   []devSpec
	logic  func(in State) bool
}

var specs = map[string]spec{
	"INV": {
		inputs: []string{"A"},
		devs: []devSpec{
			{"mp", device.PMOS, "out", "A", "vdd", 1},
			{"mn", device.NMOS, "out", "A", "gnd", 1},
		},
		logic: func(in State) bool { return !in["A"] },
	},
	"BUF": {
		inputs: []string{"A"},
		devs: []devSpec{
			{"mp1", device.PMOS, "n1", "A", "vdd", 0.5},
			{"mn1", device.NMOS, "n1", "A", "gnd", 0.5},
			{"mp2", device.PMOS, "out", "n1", "vdd", 1},
			{"mn2", device.NMOS, "out", "n1", "gnd", 1},
		},
		logic: func(in State) bool { return in["A"] },
	},
	"NAND2": {
		inputs: []string{"A", "B"},
		devs: []devSpec{
			{"mpa", device.PMOS, "out", "A", "vdd", 1},
			{"mpb", device.PMOS, "out", "B", "vdd", 1},
			{"mna", device.NMOS, "out", "A", "n1", 2},
			{"mnb", device.NMOS, "n1", "B", "gnd", 2},
		},
		logic: func(in State) bool { return !(in["A"] && in["B"]) },
	},
	"NAND3": {
		inputs: []string{"A", "B", "C"},
		devs: []devSpec{
			{"mpa", device.PMOS, "out", "A", "vdd", 1},
			{"mpb", device.PMOS, "out", "B", "vdd", 1},
			{"mpc", device.PMOS, "out", "C", "vdd", 1},
			{"mna", device.NMOS, "out", "A", "n1", 3},
			{"mnb", device.NMOS, "n1", "B", "n2", 3},
			{"mnc", device.NMOS, "n2", "C", "gnd", 3},
		},
		logic: func(in State) bool { return !(in["A"] && in["B"] && in["C"]) },
	},
	"NOR2": {
		inputs: []string{"A", "B"},
		devs: []devSpec{
			{"mpa", device.PMOS, "n1", "A", "vdd", 2},
			{"mpb", device.PMOS, "out", "B", "n1", 2},
			{"mna", device.NMOS, "out", "A", "gnd", 1},
			{"mnb", device.NMOS, "out", "B", "gnd", 1},
		},
		logic: func(in State) bool { return !(in["A"] || in["B"]) },
	},
	"NOR3": {
		inputs: []string{"A", "B", "C"},
		devs: []devSpec{
			{"mpa", device.PMOS, "n1", "A", "vdd", 3},
			{"mpb", device.PMOS, "n2", "B", "n1", 3},
			{"mpc", device.PMOS, "out", "C", "n2", 3},
			{"mna", device.NMOS, "out", "A", "gnd", 1},
			{"mnb", device.NMOS, "out", "B", "gnd", 1},
			{"mnc", device.NMOS, "out", "C", "gnd", 1},
		},
		logic: func(in State) bool { return !(in["A"] || in["B"] || in["C"]) },
	},
	// AOI21: out = !(A·B + C)
	"AOI21": {
		inputs: []string{"A", "B", "C"},
		devs: []devSpec{
			{"mpa", device.PMOS, "n1", "A", "vdd", 2},
			{"mpb", device.PMOS, "n1", "B", "vdd", 2},
			{"mpc", device.PMOS, "out", "C", "n1", 2},
			{"mna", device.NMOS, "out", "A", "n2", 2},
			{"mnb", device.NMOS, "n2", "B", "gnd", 2},
			{"mnc", device.NMOS, "out", "C", "gnd", 1},
		},
		logic: func(in State) bool { return !(in["A"] && in["B"] || in["C"]) },
	},
	// OAI21: out = !((A+B)·C)
	"OAI21": {
		inputs: []string{"A", "B", "C"},
		devs: []devSpec{
			{"mpa", device.PMOS, "n1", "A", "vdd", 2},
			{"mpb", device.PMOS, "out", "B", "n1", 2},
			{"mpc", device.PMOS, "out", "C", "vdd", 2},
			{"mna", device.NMOS, "out", "A", "n2", 2},
			{"mnb", device.NMOS, "out", "B", "n2", 2},
			{"mnc", device.NMOS, "n2", "C", "gnd", 2},
		},
		logic: func(in State) bool { return !((in["A"] || in["B"]) && in["C"]) },
	},
}

// Kinds returns the available cell kinds in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(specs))
	for k := range specs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Cell is an instantiable library cell in a given technology at a given
// drive strength.
type Cell struct {
	Kind  string
	Drive int
	Tech  *tech.Tech
	sp    spec
}

// New returns a cell of the given kind ("INV", "NAND2", ...) and drive
// strength (1, 2, 4, ...).
func New(t *tech.Tech, kind string, drive int) (*Cell, error) {
	sp, ok := specs[kind]
	if !ok {
		return nil, fmt.Errorf("cell: unknown kind %q (have %v)", kind, Kinds())
	}
	if drive < 1 {
		return nil, fmt.Errorf("cell: drive must be >= 1, got %d", drive)
	}
	return &Cell{Kind: kind, Drive: drive, Tech: t, sp: sp}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(t *tech.Tech, kind string, drive int) *Cell {
	c, err := New(t, kind, drive)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the library name, e.g. "NAND2_X2".
func (c *Cell) Name() string { return fmt.Sprintf("%s_X%d", c.Kind, c.Drive) }

// Inputs returns the input pin names.
func (c *Cell) Inputs() []string { return append([]string(nil), c.sp.inputs...) }

// HasInput reports whether pin names one of the cell's inputs.
func (c *Cell) HasInput(pin string) bool {
	for _, in := range c.sp.inputs {
		if in == pin {
			return true
		}
	}
	return false
}

// Logic evaluates the cell's boolean function.
func (c *Cell) Logic(in State) bool { return c.sp.logic(in) }

// width returns the drawn width of one template device.
func (c *Cell) width(d devSpec) float64 {
	base := c.Tech.WUnit * float64(c.Drive)
	if d.kind == device.PMOS {
		base *= c.Tech.PNRatio
	}
	return base * d.wMult
}

// Build instantiates the cell into ckt. Pin nodes are given by pins
// (inputs), out, and vdd; internal nodes are prefixed with name. Ground is
// the global "0".
func (c *Cell) Build(ckt *circuit.Circuit, name string, pins map[string]string, out, vdd string) error {
	mapNode := func(sym string) (string, error) {
		switch sym {
		case "out":
			return out, nil
		case "vdd":
			return vdd, nil
		case "gnd":
			return "0", nil
		}
		for _, in := range c.sp.inputs {
			if sym == in {
				n, ok := pins[in]
				if !ok {
					return "", fmt.Errorf("cell %s: pin %q not connected", c.Name(), in)
				}
				return n, nil
			}
		}
		// Internal node.
		return name + "." + sym, nil
	}
	for _, d := range c.sp.devs {
		dn, err := mapNode(d.d)
		if err != nil {
			return err
		}
		gn, err := mapNode(d.g)
		if err != nil {
			return err
		}
		sn, err := mapNode(d.s)
		if err != nil {
			return err
		}
		w := c.width(d)
		var p device.Params
		var mp tech.MOSParams
		if d.kind == device.PMOS {
			p = c.Tech.PMOSDevice(w)
			mp = c.Tech.PMOS
		} else {
			p = c.Tech.NMOSDevice(w)
			mp = c.Tech.NMOS
		}
		// Device parasitics: half the oxide cap plus overlap to each
		// channel terminal (this carries the gate-drain Miller feedthrough
		// the macromodel deliberately omits), and junction caps to ground
		// on the diffusions. On a card carrying the NLMOS gate-charge
		// model (CNLFrac ≠ 0, see tech.Tech.WithNonlinearCaps) the two
		// gate caps ride on the device as voltage-dependent CapParams —
		// split so the tanh midpoint equals the legacy constant value —
		// instead of linear AddC elements; the junction caps stay linear
		// either way. A zero CNLFrac takes the exact legacy path, element
		// names and order included, so constant-cap netlists, cache keys
		// and result bytes are untouched.
		cHalfGate := 0.5*mp.CGatePerWL*w*c.Tech.Lmin + mp.COverlap*w
		cJun := c.Tech.DiffCap(mp, w)
		if mp.CNLFrac != 0 {
			p.CGD = device.CapParams{
				Cp: (1 - mp.CNLFrac) * cHalfGate, Co: mp.CNLFrac * cHalfGate,
				P0: mp.CNLGDP0, P1: mp.CNLGDP1,
			}
			p.CGS = device.CapParams{
				Cp: (1 - mp.CNLFrac) * cHalfGate, Co: mp.CNLFrac * cHalfGate,
				P0: mp.CNLGSP0, P1: mp.CNLGSP1,
			}
		}
		ckt.AddM(name+"."+d.name, dn, gn, sn, p)
		if mp.CNLFrac == 0 {
			if gn != dn {
				ckt.AddC(name+"."+d.name+".cgd", gn, dn, cHalfGate)
			}
			if gn != sn {
				ckt.AddC(name+"."+d.name+".cgs", gn, sn, cHalfGate)
			}
		}
		if dn != "0" && dn != vdd {
			ckt.AddC(name+"."+d.name+".cdb", dn, "0", cJun)
		}
		if sn != "0" && sn != vdd {
			ckt.AddC(name+"."+d.name+".csb", sn, "0", cJun)
		}
	}
	return nil
}

// Bench returns a circuit holding the cell alone, wired as every
// single-cell characterisation rig wires it: a "vdd" rail source, each
// input pin P on node "in_P" driven by the DC source "v_P" at its rail in
// st, and the instance "dut" with its output on node "out". The caller adds
// its output termination and re-drives an input through the compiled
// program's handle of "v_P".
func (c *Cell) Bench(st State) (*circuit.Circuit, error) {
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", c.Tech.VDD)
	pins := make(map[string]string, len(c.sp.inputs))
	for _, in := range c.sp.inputs {
		pins[in] = "in_" + in
		ckt.AddVDC("v_"+in, pins[in], "0", c.PinVoltage(st[in]))
	}
	if err := c.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		return nil, err
	}
	return ckt, nil
}

// InputCap returns the gate capacitance presented by one input pin — the
// receiver load model used throughout the paper's macromodel.
func (c *Cell) InputCap(pin string) float64 {
	sum := 0.0
	for _, d := range c.sp.devs {
		if d.g != pin {
			continue
		}
		var p tech.MOSParams
		if d.kind == device.PMOS {
			p = c.Tech.PMOS
		} else {
			p = c.Tech.NMOS
		}
		sum += c.Tech.GateCap(p, c.width(d))
	}
	return sum
}

// OutputCap returns the diffusion capacitance at the output pin, modelled
// as a lumped parasitic at the driving point.
func (c *Cell) OutputCap() float64 {
	sum := 0.0
	for _, d := range c.sp.devs {
		if d.d != "out" && d.s != "out" {
			continue
		}
		var p tech.MOSParams
		if d.kind == device.PMOS {
			p = c.Tech.PMOS
		} else {
			p = c.Tech.NMOS
		}
		sum += c.Tech.DiffCap(p, c.width(d))
	}
	return sum
}

// halfGateCap returns the gate-to-channel-terminal capacitance of one
// device: half the oxide capacitance plus the overlap.
func (c *Cell) halfGateCap(d devSpec) float64 {
	var p tech.MOSParams
	if d.kind == device.PMOS {
		p = c.Tech.PMOS
	} else {
		p = c.Tech.NMOS
	}
	w := c.width(d)
	return 0.5*p.CGatePerWL*w*c.Tech.Lmin + p.COverlap*w
}

// OutputFixedGateCap returns the total gate-drain capacitance between the
// output and input gates held at fixed rails (all inputs except noisyPin).
// During a noise event these act as capacitance to ground at the driving
// point, and a driving-point macromodel must include them alongside the
// diffusion capacitance.
func (c *Cell) OutputFixedGateCap(noisyPin string) float64 {
	sum := 0.0
	for _, d := range c.sp.devs {
		if d.g == noisyPin {
			continue
		}
		if d.d == "out" || d.s == "out" {
			sum += c.halfGateCap(d)
		}
	}
	return sum
}

// OutputMillerCap returns the gate-drain capacitance coupling the noisy
// input pin to the output — the feedthrough path that the paper's DC-table
// macromodel omits. It is exposed so the Miller-augmented macromodel
// extension (and its ablation benchmark) can model it explicitly.
func (c *Cell) OutputMillerCap(noisyPin string) float64 {
	sum := 0.0
	for _, d := range c.sp.devs {
		if d.g != noisyPin {
			continue
		}
		if d.d == "out" || d.s == "out" {
			sum += c.halfGateCap(d)
		}
	}
	return sum
}

// InternalNodeCap returns the total junction capacitance sitting on the
// cell's internal stack nodes (e.g. between series transistors of a NAND
// pull-down). When a stack conducts — exactly the condition under which
// noise propagates through the cell — these nodes are resistively tied to
// the output, so a driving-point macromodel approximates them as
// additional capacitance at the output pin. A static I_DC table cannot
// represent the charge stored there any other way.
func (c *Cell) InternalNodeCap() float64 {
	isInternal := func(sym string) bool {
		if sym == "out" || sym == "vdd" || sym == "gnd" {
			return false
		}
		for _, in := range c.sp.inputs {
			if sym == in {
				return false
			}
		}
		return true
	}
	sum := 0.0
	for _, d := range c.sp.devs {
		var p tech.MOSParams
		if d.kind == device.PMOS {
			p = c.Tech.PMOS
		} else {
			p = c.Tech.NMOS
		}
		if isInternal(d.d) {
			sum += c.Tech.DiffCap(p, c.width(d))
		}
		if isInternal(d.s) {
			sum += c.Tech.DiffCap(p, c.width(d))
		}
	}
	return sum
}

// ConnectedInternalNodeCap returns the junction capacitance of internal
// stack nodes that are resistively connected to the output through devices
// conducting in the given quiet state. Only those nodes load the driving
// point during a noise event; internal nodes behind OFF devices are
// isolated and must not be counted (counting them overdamps the model —
// see the AOI21 ablation in EXPERIMENTS.md).
func (c *Cell) ConnectedInternalNodeCap(st State) float64 {
	levels := c.nodeLevels(st)
	deviceOn := func(d devSpec) (on, known bool) {
		lvl, ok := levels[d.g]
		if !ok {
			return false, false
		}
		if d.kind == device.NMOS {
			return lvl, true
		}
		return !lvl, true
	}
	// Walk the channel graph from "out" across ON devices.
	reached := map[string]bool{"out": true}
	for changed := true; changed; {
		changed = false
		for _, d := range c.sp.devs {
			on, known := deviceOn(d)
			if !known || !on {
				continue
			}
			if reached[d.d] != reached[d.s] {
				reached[d.d], reached[d.s] = true, true
				changed = true
			}
		}
	}
	sum := 0.0
	for _, d := range c.sp.devs {
		var p tech.MOSParams
		if d.kind == device.PMOS {
			p = c.Tech.PMOS
		} else {
			p = c.Tech.NMOS
		}
		if c.isInternalNode(d.d) && reached[d.d] {
			sum += c.Tech.DiffCap(p, c.width(d))
		}
		if c.isInternalNode(d.s) && reached[d.s] {
			sum += c.Tech.DiffCap(p, c.width(d))
		}
	}
	return sum
}

// isInternalNode reports whether a template symbol names an internal node.
func (c *Cell) isInternalNode(sym string) bool {
	if sym == "out" || sym == "vdd" || sym == "gnd" {
		return false
	}
	for _, in := range c.sp.inputs {
		if sym == in {
			return false
		}
	}
	return true
}

// nodeLevels resolves the quiet logic level of every template node that has
// a defined one: rails, inputs, the output, and internal nodes that are
// conducting-connected to exactly one rail (covers multi-stage cells such
// as BUF, whose second-stage gate is an internal node).
func (c *Cell) nodeLevels(st State) map[string]bool {
	levels := map[string]bool{"vdd": true, "gnd": false, "out": c.sp.logic(st)}
	for _, in := range c.sp.inputs {
		levels[in] = st[in]
	}
	for pass := 0; pass < len(c.sp.devs); pass++ {
		changed := false
		for _, d := range c.sp.devs {
			gl, ok := levels[d.g]
			if !ok {
				continue
			}
			on := gl
			if d.kind == device.PMOS {
				on = !gl
			}
			if !on {
				continue
			}
			dl, dOK := levels[d.d]
			sl, sOK := levels[d.s]
			if dOK && !sOK {
				levels[d.s] = dl
				changed = true
			} else if sOK && !dOK {
				levels[d.d] = sl
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return levels
}

// allStates enumerates every input assignment.
func (c *Cell) allStates() []State {
	ins := c.sp.inputs
	n := len(ins)
	out := make([]State, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		s := make(State, n)
		for i, pin := range ins {
			s[pin] = mask&(1<<i) != 0
		}
		out = append(out, s)
	}
	return out
}

// SensitizedState returns an input state in which the cell output is at the
// requested level and the given pin controls the output: flipping only that
// pin flips the output. This is the worst-case condition for noise
// propagation through the pin, and the state used for VCCS
// characterisation.
func (c *Cell) SensitizedState(pin string, outHigh bool) (State, error) {
	for _, s := range c.allStates() {
		if c.sp.logic(s) != outHigh {
			continue
		}
		flipped := s.Clone()
		flipped[pin] = !flipped[pin]
		if c.sp.logic(flipped) != outHigh {
			return s, nil
		}
	}
	return nil, fmt.Errorf("cell %s: no state sensitises pin %q with output %v", c.Name(), pin, outHigh)
}

// HoldStates returns all input states producing the requested output level.
func (c *Cell) HoldStates(outHigh bool) []State {
	var out []State
	for _, s := range c.allStates() {
		if c.sp.logic(s) == outHigh {
			out = append(out, s)
		}
	}
	return out
}

// PinVoltage converts a logic level to the rail voltage of the technology.
func (c *Cell) PinVoltage(level bool) float64 {
	if level {
		return c.Tech.VDD
	}
	return 0
}

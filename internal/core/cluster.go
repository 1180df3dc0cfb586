package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/circuit"
	"stanoise/internal/interconnect"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/thevenin"
	"stanoise/internal/wave"
)

// GlitchSpec describes the propagated-noise glitch arriving at the victim
// driver input: a triangular pulse leaving the quiet rail of the noisy pin
// towards the opposite rail.
type GlitchSpec struct {
	Height float64 // magnitude (V); 0 disables the input glitch
	Width  float64 // base width (s)
	Start  float64 // start time (s)
}

// PeakTime returns the apex time of the glitch.
func (g GlitchSpec) PeakTime() float64 { return g.Start + g.Width/2 }

// VictimSpec describes the quiet net under analysis.
type VictimSpec struct {
	Cell     *cell.Cell
	State    cell.State // quiet input state; the driver holds its output at a rail
	NoisyPin string     // input pin the propagated glitch arrives on
	Glitch   GlitchSpec
	Line     int // index of the victim wire in the bus

	Receiver    *cell.Cell // receiving cell at the far end (modelled as pin capacitance)
	ReceiverPin string
}

// AggressorSpec describes one switching neighbour.
type AggressorSpec struct {
	Cell      *cell.Cell
	FromState cell.State // input state before the transition
	SwitchPin string     // pin that toggles
	InputSlew float64    // input ramp transition time (s); default 60 ps
	InputT0   float64    // input ramp start (s); default 200 ps
	Offset    float64    // extra start-time shift applied by alignment (s)
	Line      int        // index of the aggressor wire in the bus
	// Quiet holds the aggressor at its pre-transition level instead of
	// switching — the evaluation form of an aggressor excluded from a
	// feasibility scenario (see EvaluateScenario). A quiet aggressor still
	// loads the bus through its driver, it just injects no noise; the
	// compiled benches are unaffected (only source waveforms differ), so
	// toggling Quiet between evaluations never recompiles anything.
	Quiet bool

	Receiver    *cell.Cell
	ReceiverPin string
}

// Cluster is a victim net and its coupled aggressors — the unit of noise
// analysis ("noise cluster" in the paper's terminology).
type Cluster struct {
	Tech       *tech.Tech
	Bus        *interconnect.Bus
	Victim     VictimSpec
	Aggressors []AggressorSpec

	// rigPool holds the compiled transistor-level test benches. The golden
	// netlist and the driver-alone bench have a fixed topology per
	// cluster — only source waveforms and the lumped load change between
	// evaluations — so they compile once (sim.Compile) and re-run through
	// a reusable sim.Session, borrowed from the pool for each run under
	// its topology-class key. A pool attached with UseRigPool is shared
	// with other clusters, so clusters sharing a topology — in particular,
	// victims sharing a driver cell configuration — reuse each other's
	// compiled benches; a cluster with none attached opens a private pool
	// on its first bench. rigMu guards only the attachment.
	rigMu   sync.Mutex
	rigPool *RigPool
}

// simRig is a compiled simulator test bench held by a RigPool: the
// program/session pair (a session fixes the step, and a golden bench its
// quiet-level guesses; the stop time is per-run). res is the reused
// transient result storage — the pool lends a bench to one run at a time,
// and the waveforms handed out of an evaluation copy their samples, so
// reuse across evaluations is safe. key and gen are the pool's: the
// bench's pool key and the pool generation it was lent under.
type simRig struct {
	prog *sim.Program
	sess *sim.Session
	res  sim.Result
	key  string
	gen  int
}

// Validate checks structural consistency, and that no switching
// aggressor's input ramp starts before t = 0.
func (c *Cluster) Validate() error {
	nLines := len(c.Bus.Lines)
	if c.Victim.Line < 0 || c.Victim.Line >= nLines {
		return fmt.Errorf("core: victim line %d out of range (%d lines)", c.Victim.Line, nLines)
	}
	if !c.Victim.Cell.HasInput(c.Victim.NoisyPin) {
		return fmt.Errorf("core: victim cell %s has no pin %q", c.Victim.Cell.Name(), c.Victim.NoisyPin)
	}
	used := map[int]bool{c.Victim.Line: true}
	for i, a := range c.Aggressors {
		if a.Line < 0 || a.Line >= nLines {
			return fmt.Errorf("core: aggressor %d line %d out of range", i, a.Line)
		}
		if used[a.Line] {
			return fmt.Errorf("core: line %d driven twice", a.Line)
		}
		used[a.Line] = true
		to := a.FromState.Clone()
		to[a.SwitchPin] = !to[a.SwitchPin]
		if a.Cell.Logic(a.FromState) == a.Cell.Logic(to) {
			return fmt.Errorf("core: aggressor %d switch pin %q does not toggle its output", i, a.SwitchPin)
		}
	}
	if c.Victim.Glitch.Height < 0 {
		return fmt.Errorf("core: glitch height must be a magnitude (got %g)", c.Victim.Glitch.Height)
	}
	if c.Victim.Glitch.Height > 0 && c.Victim.Glitch.Width <= 0 {
		return fmt.Errorf("core: glitch with height needs positive width")
	}
	return c.checkStarts()
}

// checkStarts rejects a switching aggressor whose input ramp starts before
// t = 0. Every run starts from the quiet operating point, with each
// aggressor port at its pre-transition rail, which such a ramp has
// already left: the macromodel would inject noise golden never sees.
func (c *Cluster) checkStarts() error {
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		if s := a.StartTime(); !a.Quiet && s < 0 {
			return fmt.Errorf("core: aggressor %d input ramp starts at %.4g ps, before t = 0", i, s*1e12)
		}
	}
	return nil
}

// QuietVictimLevel returns the rail the victim driver holds its output at.
func (c *Cluster) QuietVictimLevel() float64 {
	return c.Victim.Cell.PinVoltage(c.Victim.Cell.Logic(c.Victim.State))
}

// victimInputWave returns the absolute waveform at the victim driver's
// noisy pin: the quiet rail plus the triangular glitch (if any).
func (c *Cluster) victimInputWave() *wave.Waveform {
	quiet := c.Victim.Cell.PinVoltage(c.Victim.State[c.Victim.NoisyPin])
	g := c.Victim.Glitch
	if g.Height == 0 {
		return wave.Constant(quiet)
	}
	sign := 1.0
	if c.Victim.State[c.Victim.NoisyPin] {
		sign = -1
	}
	return wave.Triangle(quiet, sign*g.Height, g.Start, g.Width)
}

// shortestEdge returns the cluster's shortest input edge: the smallest
// input slew among the aggressors that switch (not Quiet), or half the
// victim glitch's width when the glitch has height, whichever is shorter;
// +Inf when nothing switches. EvalOptions.normalize holds the step to a
// tenth of it.
func (c *Cluster) shortestEdge() float64 {
	edge := math.Inf(1)
	if g := c.Victim.Glitch; g.Height > 0 {
		edge = g.Width / 2
	}
	for i := range c.Aggressors {
		if a := &c.Aggressors[i]; !a.Quiet && a.slew() < edge {
			edge = a.slew()
		}
	}
	return edge
}

func (a *AggressorSpec) slew() float64 {
	if a.InputSlew > 0 {
		return a.InputSlew
	}
	return 60e-12
}

func (a *AggressorSpec) t0() float64 {
	if a.InputT0 > 0 {
		return a.InputT0
	}
	return 200e-12
}

// aggressorInputWave returns the ramp driving the aggressor's switching
// pin, or the constant pre-transition level when the aggressor is Quiet.
func (a *AggressorSpec) aggressorInputWave() *wave.Waveform {
	from := a.Cell.PinVoltage(a.FromState[a.SwitchPin])
	if a.Quiet {
		return wave.Constant(from)
	}
	to := a.Cell.PinVoltage(!a.FromState[a.SwitchPin])
	return wave.SaturatedRamp(from, to, a.t0()+a.Offset, a.slew())
}

// StartTime returns the aggressor's current input-ramp start time: its
// nominal t0 (InputT0, default 200 ps) plus the alignment Offset.
func (a *AggressorSpec) StartTime() float64 { return a.t0() + a.Offset }

// receiverCap returns the pin capacitance loading a line's far end.
func receiverCap(recv *cell.Cell, pin string) float64 {
	if recv == nil {
		return 0
	}
	if pin == "" {
		pin = recv.Inputs()[0]
	}
	return recv.InputCap(pin)
}

// EventHorizon returns a transient end time that comfortably covers all
// switching events plus settling.
func (c *Cluster) EventHorizon() float64 {
	end := c.Victim.Glitch.Start + c.Victim.Glitch.Width
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		if t := a.t0() + a.Offset + a.slew(); t > end {
			end = t
		}
	}
	return end + 1.5e-9
}

// BuildGolden assembles the full transistor-level netlist of the cluster:
// victim driver with its input glitch, switching aggressor drivers, the
// distributed coupled interconnect and receiver pin capacitances. This is
// the circuit the golden simulator (the ELDO stand-in) solves.
func (c *Cluster) BuildGolden() (*circuit.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", c.Tech.VDD)
	c.Bus.Build(ckt)

	// Victim driver.
	v := &c.Victim
	vicPins := map[string]string{}
	for _, in := range v.Cell.Inputs() {
		node := "vic_in_" + in
		vicPins[in] = node
		if in == v.NoisyPin {
			ckt.AddV("vglitch", node, "0", c.victimInputWave())
		} else {
			ckt.AddVDC("vvic_"+in, node, "0", v.Cell.PinVoltage(v.State[in]))
		}
	}
	if err := v.Cell.Build(ckt, "vic", vicPins, c.Bus.InNode(v.Line), "vdd"); err != nil {
		return nil, err
	}
	if rc := receiverCap(v.Receiver, v.ReceiverPin); rc > 0 {
		ckt.AddC("crecv_vic", c.Bus.OutNode(v.Line), "0", rc)
	}

	// Aggressor drivers.
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		prefix := fmt.Sprintf("agg%d", i)
		pins := map[string]string{}
		for _, in := range a.Cell.Inputs() {
			node := prefix + "_in_" + in
			pins[in] = node
			if in == a.SwitchPin {
				ckt.AddV("v"+prefix+"_"+in, node, "0", a.aggressorInputWave())
			} else {
				ckt.AddVDC("v"+prefix+"_"+in, node, "0", a.Cell.PinVoltage(a.FromState[in]))
			}
		}
		if err := a.Cell.Build(ckt, prefix, pins, c.Bus.InNode(a.Line), "vdd"); err != nil {
			return nil, err
		}
		if rc := receiverCap(a.Receiver, a.ReceiverPin); rc > 0 {
			ckt.AddC("crecv_"+prefix, c.Bus.OutNode(a.Line), "0", rc)
		}
	}
	return ckt, nil
}

// Models holds every pre-characterised artefact needed to evaluate a
// cluster without touching the transistor-level simulator again: the VCCS
// load curve (eq. 1), the reduced interconnect macromodel, the fitted
// aggressor Thevenin drivers, the propagation table for the superposition
// baseline, and bookkeeping (quiet levels, port order).
//
// In a production flow these come from the library characterisation
// database; building them is the "pre-characterisation step" of §2.
type Models struct {
	LC   *charlib.LoadCurve
	Prop *charlib.PropTable
	Agg  []*thevenin.Driver
	Red  *mor.Reduced

	VicPort  int // port index of the victim driving point
	RecvPort int // port index of the victim receiver (far end)
	AggPorts []int

	V0       []float64 // per-port quiet DC levels
	QuietVic float64   // quiet level at the victim driving point
	QuietIn  float64   // quiet level at the victim noisy input
	LumpedCL float64   // lumped victim load used for table lookups

	HoldG   float64 // holding conductance at the quiet point
	MillerC float64 // input-output feedthrough cap of the victim driver
}

// ModelOptions tunes model construction.
type ModelOptions struct {
	LoadCurve charlib.LoadCurveOptions
	Prop      charlib.PropOptions
	// SkipProp skips propagation-table characterisation (it is only
	// needed by the Superposition baseline and is the most expensive
	// artefact).
	SkipProp bool
	// Cache, when non-nil, memoizes load curves and propagation tables
	// across clusters (and goroutines) that share a cell configuration,
	// so a design with repeated cells characterises each one only once.
	Cache *charlib.Cache
}

// BuildModels pre-characterises everything the macromodel and the baseline
// methods need for this cluster. Cancelling ctx abandons characterisation
// between (and inside) artefacts; a nil context disables cancellation.
func (c *Cluster) BuildModels(ctx context.Context, opts ModelOptions) (*Models, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	v := &c.Victim
	m := &Models{}

	// 1. The victim VCCS table (the paper's eq. 1).
	lc, err := opts.Cache.LoadCurve(ctx, v.Cell, v.State, v.NoisyPin, opts.LoadCurve)
	if err != nil {
		return nil, fmt.Errorf("core: victim load curve: %w", err)
	}
	m.LC = lc
	m.QuietVic = c.QuietVictimLevel()
	m.QuietIn = v.Cell.PinVoltage(v.State[v.NoisyPin])
	m.HoldG = lc.HoldingConductance(m.QuietIn, m.QuietVic)

	// 2. Lumped victim load for table-based lookups: wire + receiver +
	// driver output diffusion (coupling conservatively grounded).
	m.LumpedCL = c.Bus.TotalCap(v.Line) + receiverCap(v.Receiver, v.ReceiverPin) + v.Cell.OutputCap()

	// 3. Propagation table for the superposition baseline.
	if !opts.SkipProp {
		prop, err := opts.Cache.PropTable(ctx, v.Cell, v.State, v.NoisyPin, opts.Prop)
		if err != nil {
			return nil, fmt.Errorf("core: propagation table: %w", err)
		}
		m.Prop = prop
	}

	// 4. Thevenin models of the aggressor drivers, memoized (and persisted,
	// when the cache has a disk tier) like every other characterised
	// artefact.
	for i := range c.Aggressors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := &c.Aggressors[i]
		load := c.Bus.TotalCap(a.Line) + receiverCap(a.Receiver, a.ReceiverPin) + a.Cell.OutputCap()
		// Fit at the base ramp time; alignment offsets are applied at
		// evaluation time via Driver.Shifted, so re-aligning a cluster
		// never requires refitting.
		fit, err := opts.Cache.TheveninFit(ctx, a.Cell, a.FromState, a.SwitchPin, load,
			thevenin.FitOptions{InputSlew: a.slew(), InputT0: a.t0()})
		if err != nil {
			return nil, fmt.Errorf("core: aggressor %d thevenin fit: %w", i, err)
		}
		m.Agg = append(m.Agg, fit)
	}

	// 5. Reduced coupled interconnect with lumped parasitics at the ports.
	extra := map[string]float64{}
	addCap := func(node string, cap float64) {
		if cap > 0 {
			extra[node] += cap
		}
	}
	// The driving-point parasitics: diffusion caps, the gate-drain caps of
	// devices whose gates sit at fixed rails (those behave as grounded
	// capacitance during the event), and the junction caps of internal
	// stack nodes, which couple to the output through the conducting stack
	// whenever noise propagates. The noisy pin's gate-drain cap is the
	// Miller feedthrough, stored separately for the optional
	// Miller-augmented engine.
	addCap(c.Bus.InNode(v.Line),
		v.Cell.OutputCap()+v.Cell.OutputFixedGateCap(v.NoisyPin)+v.Cell.ConnectedInternalNodeCap(v.State))
	addCap(c.Bus.OutNode(v.Line), receiverCap(v.Receiver, v.ReceiverPin))
	m.MillerC = v.Cell.OutputMillerCap(v.NoisyPin)
	ports := []string{c.Bus.InNode(v.Line)}
	m.VicPort = 0
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		addCap(c.Bus.InNode(a.Line), a.Cell.OutputCap()+a.Cell.OutputFixedGateCap(a.SwitchPin))
		addCap(c.Bus.OutNode(a.Line), receiverCap(a.Receiver, a.ReceiverPin))
		m.AggPorts = append(m.AggPorts, len(ports))
		ports = append(ports, c.Bus.InNode(a.Line))
	}
	m.RecvPort = len(ports)
	ports = append(ports, c.Bus.OutNode(v.Line))

	net := c.Bus.Network(extra)
	red, err := mor.Reduce(net, ports, mor.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: interconnect reduction: %w", err)
	}
	m.Red = red

	// 6. Quiet DC level per port: every victim-line port sits at the
	// victim quiet level, every aggressor port at its pre-transition rail.
	m.V0 = make([]float64, len(ports))
	m.V0[m.VicPort] = m.QuietVic
	m.V0[m.RecvPort] = m.QuietVic
	for i, pi := range m.AggPorts {
		m.V0[pi] = m.Agg[i].V0
	}
	return m, nil
}

// AggStartLevel returns the pre-transition output level of aggressor i.
func (c *Cluster) AggStartLevel(i int) float64 {
	a := &c.Aggressors[i]
	return a.Cell.PinVoltage(a.Cell.Logic(a.FromState))
}

package cell

import (
	"context"
	"math"
	"strings"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

func t130() *tech.Tech { return tech.Tech130() }

func TestKindsComplete(t *testing.T) {
	want := []string{"AOI21", "BUF", "INV", "NAND2", "NAND3", "NOR2", "NOR3", "OAI21"}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Kinds[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(t130(), "XOR9", 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New(t130(), "INV", 0); err == nil {
		t.Error("zero drive accepted")
	}
}

func TestLogicTables(t *testing.T) {
	tt := t130()
	cases := []struct {
		kind string
		in   State
		want bool
	}{
		{"INV", State{"A": false}, true},
		{"INV", State{"A": true}, false},
		{"BUF", State{"A": true}, true},
		{"NAND2", State{"A": true, "B": false}, true},
		{"NAND2", State{"A": true, "B": true}, false},
		{"NAND3", State{"A": true, "B": true, "C": true}, false},
		{"NAND3", State{"A": true, "B": true, "C": false}, true},
		{"NOR2", State{"A": false, "B": false}, true},
		{"NOR2", State{"A": true, "B": false}, false},
		{"NOR3", State{"A": false, "B": false, "C": false}, true},
		{"AOI21", State{"A": true, "B": true, "C": false}, false},
		{"AOI21", State{"A": true, "B": false, "C": false}, true},
		{"AOI21", State{"A": false, "B": false, "C": true}, false},
		{"OAI21", State{"A": true, "B": false, "C": true}, false},
		{"OAI21", State{"A": false, "B": false, "C": true}, true},
		{"OAI21", State{"A": true, "B": true, "C": false}, true},
	}
	for _, c := range cases {
		cl := MustNew(tt, c.kind, 1)
		if got := cl.Logic(c.in); got != c.want {
			t.Errorf("%s(%v) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

// Every cell's transistor netlist must implement its logic function: for
// each input state, DC-solve the cell and compare the output level.
func TestNetlistMatchesLogicAllCells(t *testing.T) {
	tt := t130()
	for _, kind := range Kinds() {
		cl := MustNew(tt, kind, 1)
		for _, st := range cl.HoldStates(true) {
			checkState(t, cl, st, true)
		}
		for _, st := range cl.HoldStates(false) {
			checkState(t, cl, st, false)
		}
	}
}

func checkState(t *testing.T, cl *Cell, st State, wantHigh bool) {
	t.Helper()
	ckt, err := cl.Bench(st)
	if err != nil {
		t.Fatalf("%s: %v", cl.Name(), err)
	}
	ckt.AddR("rl", "out", "0", 1e9)
	guess := map[string]float64{"out": cl.PinVoltage(wantHigh)}
	dc, err := sim.DC(ckt, sim.Options{InitialGuess: guess})
	if err != nil {
		t.Fatalf("%s state %v: DC failed: %v", cl.Name(), st, err)
	}
	out := dc.NodeV("out")
	if wantHigh && out < 0.9*cl.Tech.VDD {
		t.Errorf("%s state %v: out=%.3f, want high", cl.Name(), st, out)
	}
	if !wantHigh && out > 0.1*cl.Tech.VDD {
		t.Errorf("%s state %v: out=%.3f, want low", cl.Name(), st, out)
	}
}

// TestBenchWiring pins the lone-cell bench every characterisation rig
// builds on: the vdd rail source first, then each input P on node in_P
// driven by v_P at its rail in the state, in pin order, and the instance
// dut driving node out.
func TestBenchWiring(t *testing.T) {
	cl := MustNew(t130(), "NAND2", 1)
	ckt, err := cl.Bench(State{"A": true, "B": false})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, node string
		v          float64
	}{{"vdd", "vdd", cl.Tech.VDD}, {"v_A", "in_A", cl.Tech.VDD}, {"v_B", "in_B", 0}}
	if len(ckt.VSources) != len(want) {
		t.Fatalf("%d voltage sources, want %d", len(ckt.VSources), len(want))
	}
	for i, w := range want {
		vs := ckt.VSources[i]
		if vs.Name != w.name || ckt.NodeName(vs.Pos) != w.node || vs.Neg != circuit.Ground || vs.W.At(0) != w.v {
			t.Errorf("source %d: %s on %s at %g V, want %s on %s at %g V",
				i, vs.Name, ckt.NodeName(vs.Pos), vs.W.At(0), w.name, w.node, w.v)
		}
	}
	if len(ckt.Mosfets) == 0 {
		t.Fatal("bench holds no transistors")
	}
	for _, m := range ckt.Mosfets {
		if !strings.HasPrefix(m.Name, "dut.") {
			t.Errorf("transistor %s is not in instance dut", m.Name)
		}
	}
	if _, ok := ckt.LookupNode("out"); !ok {
		t.Error("bench has no out node")
	}
}

func TestSensitizedStateNAND2(t *testing.T) {
	cl := MustNew(t130(), "NAND2", 1)
	st, err := cl.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	// The only sensitising state with output high is A=1, B=0 — the
	// paper's Table 1 victim condition.
	if !st["A"] || st["B"] {
		t.Errorf("state = %v, want A=1,B=0", st)
	}
}

func TestSensitizedStateImpossible(t *testing.T) {
	cl := MustNew(t130(), "NAND2", 1)
	// With output low (A=B=1), flipping one input flips the output, so a
	// sensitised low state exists; but e.g. INV output high is sensitised
	// trivially. Exercise the error path with a fabricated impossible pin.
	if _, err := cl.SensitizedState("Z", true); err == nil {
		t.Error("nonexistent pin accepted")
	}
}

func TestCapsScaleWithDrive(t *testing.T) {
	tt := t130()
	c1 := MustNew(tt, "INV", 1)
	c4 := MustNew(tt, "INV", 4)
	if got, want := c4.InputCap("A"), 4*c1.InputCap("A"); math.Abs(got-want) > 1e-20 {
		t.Errorf("InputCap X4 = %v, want %v", got, want)
	}
	if got, want := c4.OutputCap(), 4*c1.OutputCap(); math.Abs(got-want) > 1e-20 {
		t.Errorf("OutputCap X4 = %v, want %v", got, want)
	}
	// Plausible magnitudes: a unit inverter input is a few fF.
	if ic := c1.InputCap("A"); ic < 0.5e-15 || ic > 20e-15 {
		t.Errorf("unit inverter input cap = %v F, implausible", ic)
	}
}

func TestNAND2StackInternalNode(t *testing.T) {
	// The NAND2 template must create exactly one internal node, shared by
	// the stacked NMOS pair, so that stack weakening during input glitches
	// is physically represented.
	ckt := circuit.New()
	cl := MustNew(t130(), "NAND2", 1)
	if err := cl.Build(ckt, "u1", map[string]string{"A": "a", "B": "b"}, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ckt.LookupNode("u1.n1"); !ok {
		t.Error("internal node u1.n1 missing")
	}
	if len(ckt.Mosfets) != 4 {
		t.Errorf("NAND2 has %d transistors, want 4", len(ckt.Mosfets))
	}
}

func TestBuildUnconnectedPin(t *testing.T) {
	ckt := circuit.New()
	cl := MustNew(t130(), "NAND2", 1)
	err := cl.Build(ckt, "u1", map[string]string{"A": "a"}, "out", "vdd")
	if err == nil {
		t.Error("missing pin connection accepted")
	}
}

// A buffer must drive its output to the same level as its input through two
// internal stages, transistor-level.
func TestBUFTransient(t *testing.T) {
	tt := t130()
	cl := MustNew(tt, "BUF", 2)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tt.VDD)
	ckt.AddV("vin", "a", "0", wave.SaturatedRamp(0, tt.VDD, 100e-12, 50e-12))
	if err := cl.Build(ckt, "u1", map[string]string{"A": "a"}, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", 30e-15)
	res, err := sim.Transient(context.Background(), ckt, sim.Options{Dt: 1e-12, TStop: 1.5e-9})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waveform("out")
	if got := w.At(0); got > 0.05 {
		t.Errorf("initial out = %v, want 0", got)
	}
	if got := w.At(1.5e-9); math.Abs(got-tt.VDD) > 0.05 {
		t.Errorf("final out = %v, want %v", got, tt.VDD)
	}
}

func TestStateString(t *testing.T) {
	s := State{"B": false, "A": true}
	if got := s.String(); got != "A=1,B=0" {
		t.Errorf("String = %q", got)
	}
}

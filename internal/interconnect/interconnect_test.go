package interconnect

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// simulate runs ckt for 2 ns on a fresh 1 ps simulator session.
func simulate(ckt *circuit.Circuit) (*sim.Result, error) {
	sess, err := sim.NewSession(sim.Compile(ckt), 1e-12)
	if err != nil {
		return nil, err
	}
	var res sim.Result
	if err := sess.RunTransient(context.Background(), &res, 2e-9, nil); err != nil {
		return nil, err
	}
	return &res, nil
}

func twoLine500(t *testing.T) *Bus {
	t.Helper()
	b, err := NewBus(tech.Tech130(), "M4", 15,
		LineSpec{Name: "vic", LengthUm: 500},
		LineSpec{Name: "agg", LengthUm: 500},
	)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBusValidation(t *testing.T) {
	tt := tech.Tech130()
	if _, err := NewBus(tt, "M4", 0, LineSpec{Name: "a", LengthUm: 10}); err == nil {
		t.Error("zero segments accepted")
	}
	if _, err := NewBus(tt, "M99", 5, LineSpec{Name: "a", LengthUm: 10}); err == nil {
		t.Error("unknown layer accepted")
	}
	if _, err := NewBus(tt, "M4", 5); err == nil {
		t.Error("empty bus accepted")
	}
	if _, err := NewBus(tt, "M4", 5, LineSpec{Name: "a"}); err == nil {
		t.Error("zero length accepted")
	}
}

func TestTotals(t *testing.T) {
	b := twoLine500(t)
	// M4 in cmos130: R=0.085 Ω/µm, Cg=0.040 fF/µm, Cc=0.095 fF/µm.
	if got, want := b.WireResistanceTotal(0), 42.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("R = %v, want %v", got, want)
	}
	if got, want := b.GroundCapTotal(0), 20e-15; math.Abs(got-want) > 1e-27 {
		t.Errorf("Cg = %v, want %v", got, want)
	}
	// One neighbour at min spacing: 47.5 fF of coupling.
	if got, want := b.CouplingCapTotal(0), 47.5e-15; math.Abs(got-want) > 1e-27 {
		t.Errorf("Cc = %v, want %v", got, want)
	}
	if got, want := b.TotalCap(0), 67.5e-15; math.Abs(got-want) > 1e-27 {
		t.Errorf("Ctot = %v, want %v", got, want)
	}
	// Coupling dominates ground capacitance on long parallel M4 runs —
	// the regime the paper's introduction describes.
	if b.CouplingCapTotal(0) < 2*b.GroundCapTotal(0) {
		t.Error("coupling should dominate ground capacitance on M4 parallel runs")
	}
}

func TestSpacingReducesCoupling(t *testing.T) {
	tt := tech.Tech130()
	b2, err := NewBus(tt, "M4", 10,
		LineSpec{Name: "v", LengthUm: 100, SpacingFactor: 2},
		LineSpec{Name: "a", LengthUm: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	b1 := mustBus(t, tt, "M4", 10, 100)
	if got, want := b2.CouplingCapTotal(0), b1.CouplingCapTotal(0)/2; math.Abs(got-want) > 1e-27 {
		t.Errorf("double spacing coupling = %v, want %v", got, want)
	}
}

func mustBus(t *testing.T, tt *tech.Tech, layer string, segs int, lengthUm float64) *Bus {
	t.Helper()
	b, err := NewBus(tt, layer, segs,
		LineSpec{Name: "v", LengthUm: lengthUm},
		LineSpec{Name: "a", LengthUm: lengthUm},
	)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The conservation check: the sum of all capacitor values stamped into the
// circuit equals the analytic totals.
func TestStampedCapBudget(t *testing.T) {
	b := twoLine500(t)
	ckt := circuit.New()
	b.Build(ckt)
	var cg, cc float64
	for _, c := range ckt.Capacitors {
		// Coupling caps connect two non-ground nodes.
		if c.A != circuit.Ground && c.B != circuit.Ground {
			cc += c.C
		} else {
			cg += c.C
		}
	}
	wantCg := b.GroundCapTotal(0) + b.GroundCapTotal(1)
	wantCc := b.CouplingCapTotal(0) // equals CouplingCapTotal(1) here, counted once
	if math.Abs(cg-wantCg) > 1e-22 {
		t.Errorf("stamped ground cap %v, want %v", cg, wantCg)
	}
	if math.Abs(cc-wantCc) > 1e-22 {
		t.Errorf("stamped coupling cap %v, want %v", cc, wantCc)
	}
}

// Driving the near end with a ramp must propagate to the far end with a
// small, physically plausible delay (Elmore RC/2-ish) and full final value.
func TestWaveePropagation(t *testing.T) {
	b := twoLine500(t)
	ckt := circuit.New()
	b.Build(ckt)
	ckt.AddV("vs", b.InNode(0), "0", wave.SaturatedRamp(0, 1.2, 50e-12, 50e-12))
	// Keep the aggressor grounded at the near end.
	ckt.AddVDC("va", b.InNode(1), "0", 0)
	res, err := simulate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	far := res.Waveform(b.OutNode(0))
	if got := far.At(2e-9); math.Abs(got-1.2) > 0.01 {
		t.Errorf("far end settles to %v, want 1.2", got)
	}
	// Crossing delay between near and far 50 % points should be on the
	// order of the distributed RC delay (R·C/2 ≈ 42.5 Ω · 67.5 fF / 2 ≈
	// 1.4 ps) plus coupling-to-grounded-aggressor slowdown; assert a sane
	// bracket rather than an exact number.
	near := res.Waveform(b.InNode(0))
	tNear := crossing(near, 0.6)
	tFar := crossing(far, 0.6)
	if tFar <= tNear {
		t.Errorf("far end crossed before near end: %v <= %v", tFar, tNear)
	}
	if tFar-tNear > 50e-12 {
		t.Errorf("propagation delay %v s implausibly large", tFar-tNear)
	}
}

func crossing(w *wave.Waveform, level float64) float64 {
	for i := 1; i < len(w.T); i++ {
		if w.V[i-1] < level && w.V[i] >= level {
			f := (level - w.V[i-1]) / (w.V[i] - w.V[i-1])
			return w.T[i-1] + f*(w.T[i]-w.T[i-1])
		}
	}
	return math.Inf(1)
}

// Crosstalk sanity at the circuit level: a falling aggressor couples a
// downward glitch into a floating-driver victim held by a resistor.
func TestCrosstalkInjection(t *testing.T) {
	b := twoLine500(t)
	ckt := circuit.New()
	b.Build(ckt)
	// Victim held high through a holding resistance.
	ckt.AddVDC("vdd", "vdd", "0", 1.2)
	ckt.AddR("rhold", "vdd", b.InNode(0), 2000)
	// Aggressor driven by a fast falling ramp.
	ckt.AddV("va", b.InNode(1), "0", wave.SaturatedRamp(1.2, 0, 200e-12, 80e-12))
	res, err := simulate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	m := wave.MeasureNoise(res.Waveform(b.OutNode(0)), 1.2)
	if m.Sign != -1 {
		t.Fatalf("glitch direction %v, want downward", m.Sign)
	}
	if m.Peak < 0.05 || m.Peak > 1.0 {
		t.Errorf("injected peak %v V implausible", m.Peak)
	}
	// The glitch must recover: final value back near 1.2 V.
	if final := res.Waveform(b.OutNode(0)).At(2e-9); math.Abs(final-1.2) > 0.02 {
		t.Errorf("victim did not recover: %v", final)
	}
}

// The mor.Network built from the same bus must produce the same transient
// as the stamped circuit when both are driven identically (reduction
// cross-check happens in mor and core tests; here we check the network
// matrices themselves via impedance at mid frequencies).
func TestNetworkMatchesCircuitTopology(t *testing.T) {
	b := twoLine500(t)
	net := b.Network(map[string]float64{b.OutNode(0): 2e-15})
	if net.Size() != 2*(15+1) {
		t.Fatalf("network size %d", net.Size())
	}
	// Total capacitance in the network = buses + the extra cap.
	ctot := 0.0
	for i := 0; i < net.Size(); i++ {
		row := 0.0
		for j := 0; j < net.Size(); j++ {
			row += net.C.At(i, j)
		}
		ctot += row
	}
	want := b.GroundCapTotal(0) + b.GroundCapTotal(1) + 2e-15
	if math.Abs(ctot-want) > 1e-22 {
		t.Errorf("network ground-cap budget %v, want %v", ctot, want)
	}
}

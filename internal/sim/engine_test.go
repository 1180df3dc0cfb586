package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/wave"
)

func TestDCResistorDivider(t *testing.T) {
	c := circuit.New()
	c.AddVDC("vin", "in", "0", 2.0)
	c.AddR("r1", "in", "mid", 1000)
	c.AddR("r2", "mid", "0", 3000)
	dc, err := freshDC(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.NodeV("mid"); math.Abs(got-1.5) > 1e-7 {
		t.Errorf("mid = %v, want 1.5", got)
	}
	// Branch current through the source: 2 V across 4 kΩ = 0.5 mA flowing
	// out of the source, i.e. -0.5 mA into its positive terminal.
	if got := dc.BranchI("vin"); math.Abs(got+0.5e-3) > 1e-9 {
		t.Errorf("branch current = %v, want -0.5e-3", got)
	}
}

func TestDCCurrentSource(t *testing.T) {
	c := circuit.New()
	c.AddI("i1", "a", "0", wave.Constant(1e-3))
	c.AddR("r1", "a", "0", 2000)
	dc, err := freshDC(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.NodeV("a"); math.Abs(got-2.0) > 1e-7 {
		t.Errorf("a = %v, want 2.0", got)
	}
}

func TestRCStepResponse(t *testing.T) {
	// 1 kΩ into 1 pF, step source 0→1 V at t=0 via PWL with 1 ps rise.
	// τ = 1 ns.
	c := circuit.New()
	c.AddV("vs", "in", "0", wave.SaturatedRamp(0, 1, 0, 1e-12))
	c.AddR("r", "in", "out", 1000)
	c.AddC("c", "out", "0", 1e-12)
	res, err := freshTransient(context.Background(), c, 5e-12, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waveform("out")
	for _, tc := range []float64{0.5e-9, 1e-9, 2e-9, 4e-9} {
		want := 1 - math.Exp(-tc/1e-9)
		if got := w.At(tc); math.Abs(got-want) > 0.01 {
			t.Errorf("v(out) at %v = %v, want %v", tc, got, want)
		}
	}
	// Fully settled at the end.
	if got := w.At(5e-9); math.Abs(got-1) > 0.01 {
		t.Errorf("settled value = %v", got)
	}
}

func inv013(c *circuit.Circuit, name, in, out, vdd string) {
	c.AddM(name+"_p", out, in, vdd, device.Params{
		Kind: device.PMOS, W: 2.6e-6, L: 0.13e-6, KP: 90e-6, VT0: -0.38, Lambda: 0.2,
	})
	c.AddM(name+"_n", out, in, "0", device.Params{
		Kind: device.NMOS, W: 1.3e-6, L: 0.13e-6, KP: 340e-6, VT0: 0.35, Lambda: 0.15,
	})
}

func TestInverterDCTransfer(t *testing.T) {
	const vdd = 1.2
	for _, tc := range []struct {
		vin      float64
		wantHigh bool
	}{
		{0, true}, {0.2, true}, {1.0, false}, {1.2, false},
	} {
		c := circuit.New()
		c.AddVDC("vdd", "vdd", "0", vdd)
		c.AddVDC("vin", "in", "0", tc.vin)
		inv013(c, "u1", "in", "out", "vdd")
		c.AddR("rload", "out", "0", 1e9) // probe load
		dc, err := freshDC(c, nil)
		if err != nil {
			t.Fatalf("vin=%v: %v", tc.vin, err)
		}
		out := dc.NodeV("out")
		if tc.wantHigh && out < 0.9*vdd {
			t.Errorf("vin=%v: out=%v, want near VDD", tc.vin, out)
		}
		if !tc.wantHigh && out > 0.1*vdd {
			t.Errorf("vin=%v: out=%v, want near 0", tc.vin, out)
		}
	}
}

func TestInverterTransient(t *testing.T) {
	const vdd = 1.2
	c := circuit.New()
	c.AddVDC("vdd", "vdd", "0", vdd)
	c.AddV("vin", "in", "0", wave.SaturatedRamp(0, vdd, 200e-12, 50e-12))
	inv013(c, "u1", "in", "out", "vdd")
	c.AddC("cl", "out", "0", 20e-15)
	res, err := freshTransient(context.Background(), c, 1e-12, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waveform("out")
	if got := w.At(0.1e-9); math.Abs(got-vdd) > 0.02 {
		t.Errorf("initial out = %v, want %v", got, vdd)
	}
	if got := w.At(2e-9); math.Abs(got) > 0.02 {
		t.Errorf("final out = %v, want 0", got)
	}
	// The output must cross VDD/2 after the input does (causality).
	tin, tout := -1.0, -1.0
	for i, tm := range res.Times {
		if tin < 0 && res.At("in", i) > vdd/2 {
			tin = tm
		}
		if tout < 0 && res.At("out", i) < vdd/2 {
			tout = tm
		}
	}
	if tin < 0 || tout < 0 || tout <= tin {
		t.Errorf("crossings: in=%v out=%v", tin, tout)
	}
}

type linearVCCS struct{ g float64 }

func (l linearVCCS) Eval(vc, vo float64) (float64, float64, float64) {
	// Injects g·(vc - vo): a resistor realised as a VCCS.
	return l.g * (vc - vo), l.g, -l.g
}

func TestVCCSEquivalentToResistor(t *testing.T) {
	// VCCS g(vc-vo) between source node and output must behave exactly
	// like a resistor of 1/g for the divider.
	c := circuit.New()
	c.AddVDC("vs", "in", "0", 1.0)
	c.AddVCCS("x1", "in", "out", linearVCCS{g: 1e-3})
	c.AddR("r2", "out", "0", 1000)
	dc, err := freshDC(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.NodeV("out"); math.Abs(got-0.5) > 1e-7 {
		t.Errorf("out = %v, want 0.5", got)
	}
}

func TestTransientRequiresTStop(t *testing.T) {
	c := circuit.New()
	c.AddVDC("v", "a", "0", 1)
	c.AddR("r", "a", "0", 100)
	if _, err := freshTransient(context.Background(), c, 0, 0); err == nil {
		t.Error("a transient without a stop time should fail")
	}
}

// Property: in a purely linear RC circuit the response to two sources is
// the sum of the responses to each source alone (superposition) — the very
// assumption the paper shows breaks down once drivers are non-linear.
func TestLinearSuperpositionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(s1, s2 float64) *circuit.Circuit {
			c := circuit.New()
			c.AddV("v1", "a", "0", wave.SaturatedRamp(0, s1, 100e-12, 80e-12))
			c.AddV("v2", "b", "0", wave.SaturatedRamp(0, s2, 150e-12, 60e-12))
			c.AddR("r1", "a", "x", 800)
			c.AddR("r2", "b", "x", 1200)
			c.AddR("r3", "x", "0", 2500)
			c.AddC("c1", "x", "0", 150e-15)
			return c
		}
		amp1 := 0.3 + rng.Float64()
		amp2 := 0.3 + rng.Float64()
		rBoth, err := freshTransient(context.Background(), build(amp1, amp2), 2e-12, 1e-9)
		if err != nil {
			return false
		}
		r1, err := freshTransient(context.Background(), build(amp1, 0), 2e-12, 1e-9)
		if err != nil {
			return false
		}
		r2, err := freshTransient(context.Background(), build(0, amp2), 2e-12, 1e-9)
		if err != nil {
			return false
		}
		sum := wave.Add(r1.Waveform("x"), r2.Waveform("x"))
		return wave.MaxAbsDiff(rBoth.Waveform("x"), sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestNAND2DCStates(t *testing.T) {
	const vdd = 1.2
	build := func(va, vb float64) *circuit.Circuit {
		c := circuit.New()
		c.AddVDC("vdd", "vdd", "0", vdd)
		c.AddVDC("va", "a", "0", va)
		c.AddVDC("vb", "b", "0", vb)
		np := device.Params{Kind: device.NMOS, W: 2.6e-6, L: 0.13e-6, KP: 340e-6, VT0: 0.35, Lambda: 0.15}
		pp := device.Params{Kind: device.PMOS, W: 2.6e-6, L: 0.13e-6, KP: 90e-6, VT0: -0.38, Lambda: 0.2}
		c.AddM("mpa", "out", "a", "vdd", pp)
		c.AddM("mpb", "out", "b", "vdd", pp)
		c.AddM("mna", "out", "a", "mid", np)
		c.AddM("mnb", "mid", "b", "0", np)
		c.AddR("rl", "out", "0", 1e9)
		return c
	}
	cases := []struct {
		va, vb   float64
		wantHigh bool
	}{
		{0, 0, true}, {vdd, 0, true}, {0, vdd, true}, {vdd, vdd, false},
	}
	for _, tc := range cases {
		dc, err := freshDC(build(tc.va, tc.vb), nil)
		if err != nil {
			t.Fatalf("a=%v b=%v: %v", tc.va, tc.vb, err)
		}
		out := dc.NodeV("out")
		if tc.wantHigh && out < 0.9*vdd {
			t.Errorf("a=%v b=%v: out=%v, want high", tc.va, tc.vb, out)
		}
		if !tc.wantHigh && out > 0.1*vdd {
			t.Errorf("a=%v b=%v: out=%v, want low", tc.va, tc.vb, out)
		}
	}
}

func BenchmarkTransientInverter(b *testing.B) {
	c := circuit.New()
	c.AddVDC("vdd", "vdd", "0", 1.2)
	c.AddV("vin", "in", "0", wave.SaturatedRamp(0, 1.2, 200e-12, 50e-12))
	inv013(c, "u1", "in", "out", "vdd")
	c.AddC("cl", "out", "0", 20e-15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := freshTransient(context.Background(), c, 1e-12, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

package thevenin

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

func TestRampResponseShape(t *testing.T) {
	// Progress is 0 before the ramp, monotonic, and approaches 1.
	tr, tau := 100e-12, 50e-12
	if p := rampResponse(-1e-12, tr, tau); p != 0 {
		t.Errorf("progress before start = %v", p)
	}
	prev := 0.0
	for u := 0.0; u < 2e-9; u += 5e-12 {
		p := rampResponse(u, tr, tau)
		if p < prev-1e-12 {
			t.Fatalf("progress not monotonic at u=%v", u)
		}
		prev = p
	}
	if prev < 0.999 {
		t.Errorf("progress never completes: %v", prev)
	}
}

func TestRampCrossingConsistency(t *testing.T) {
	tr, tau := 120e-12, 40e-12
	for _, frac := range []float64{0.2, 0.5, 0.8, 0.95} {
		u := rampCrossing(tr, tau, frac)
		if p := rampResponse(u, tr, tau); math.Abs(p-frac) > 1e-6 {
			t.Errorf("crossing(%v): response = %v", frac, p)
		}
	}
}

func TestFitInverterFalling(t *testing.T) {
	tt := tech.Tech130()
	inv := cell.MustNew(tt, "INV", 2)
	// Input rises ⇒ output falls: the paper's aggressor direction.
	drv, _, err := Fit(context.Background(), inv, cell.State{"A": false}, "A", 80e-15, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drv.V0 != tt.VDD || drv.V1 != 0 {
		t.Errorf("transition levels %v→%v, want %v→0", drv.V0, drv.V1, tt.VDD)
	}
	if drv.RTh < 50 || drv.RTh > 10000 {
		t.Errorf("RTh = %v Ω implausible for X2 inverter", drv.RTh)
	}
	if drv.Tr <= 0 || drv.Tr > 1e-9 {
		t.Errorf("Tr = %v s implausible", drv.Tr)
	}
	if drv.T0 < 0 || drv.T0 > 1e-9 {
		t.Errorf("T0 = %v s implausible", drv.T0)
	}
}

// The heart of the Dartu–Pileggi idea: the fitted linear model driving the
// same lumped load must track the transistor-level output closely around
// the transition.
func TestFittedModelMatchesGolden(t *testing.T) {
	tt := tech.Tech130()
	inv := cell.MustNew(tt, "INV", 2)
	load := 80e-15
	opts := FitOptions{}
	drv, _, err := Fit(context.Background(), inv, cell.State{"A": false}, "A", load, opts)
	if err != nil {
		t.Fatal(err)
	}
	golden, _, err := simulateSwitch(context.Background(), inv, cell.State{"A": false}, "A", load, opts.normalize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Linear model response via the simulator itself.
	lin := circuit.New()
	lin.AddV("vth", "th", "0", drv.Waveform())
	lin.AddR("rth", "th", "out", drv.RTh)
	lin.AddC("cl", "out", "0", load)
	sess, err := sim.NewSession(sim.Compile(lin), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	if err := sess.RunTransient(context.Background(), &res, golden.End(), nil); err != nil {
		t.Fatal(err)
	}
	model := res.Waveform("out")
	// Compare crossing times at fractions inside the fitted band.
	for _, frac := range []float64{0.5, 0.8} {
		level := tt.VDD * (1 - frac)
		tg := fallCrossing(golden, level)
		tm := fallCrossing(model, level)
		if math.Abs(tg-tm) > 10e-12 {
			t.Errorf("crossing at %.0f%%: golden %v vs model %v", frac*100, tg, tm)
		}
	}
	// Waveform-level agreement within a modest envelope (the linear model
	// cannot capture the full non-linear shape, but must stay close).
	if d := wave.MaxAbsDiff(golden, model); d > 0.25*tt.VDD {
		t.Errorf("model deviates %v V from golden", d)
	}
}

func fallCrossing(w *wave.Waveform, level float64) float64 {
	for i := 1; i < len(w.T); i++ {
		if w.V[i-1] > level && w.V[i] <= level {
			f := (w.V[i-1] - level) / (w.V[i-1] - w.V[i])
			return w.T[i-1] + f*(w.T[i]-w.T[i-1])
		}
	}
	return math.Inf(1)
}

func TestFitRejectsNonToggling(t *testing.T) {
	tt := tech.Tech130()
	nand := cell.MustNew(tt, "NAND2", 1)
	// With A=0, toggling B does not change the NAND output.
	if _, _, err := Fit(context.Background(), nand, cell.State{"A": false, "B": false}, "B", 50e-15, FitOptions{}); err == nil {
		t.Error("non-toggling switch accepted")
	}
}

func TestFitNAND2Rising(t *testing.T) {
	tt := tech.Tech130()
	nand := cell.MustNew(tt, "NAND2", 2)
	// A=1,B=1 → out low; B falls ⇒ out rises.
	drv, _, err := Fit(context.Background(), nand, cell.State{"A": true, "B": true}, "B", 60e-15, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drv.V0 != 0 || drv.V1 != tt.VDD {
		t.Errorf("levels %v→%v, want 0→%v", drv.V0, drv.V1, tt.VDD)
	}
}

func TestShifted(t *testing.T) {
	d := &Driver{V0: 1.2, V1: 0, T0: 1e-10, Tr: 5e-11, RTh: 500}
	s := d.Shifted(3e-10)
	if s.T0 != 4e-10 || d.T0 != 1e-10 {
		t.Errorf("Shifted wrong: %v (orig %v)", s.T0, d.T0)
	}
}

func TestFit90nm(t *testing.T) {
	tt := tech.Tech90()
	inv := cell.MustNew(tt, "INV", 1)
	drv, _, err := Fit(context.Background(), inv, cell.State{"A": false}, "A", 40e-15, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drv.V0 != tt.VDD || drv.V1 != 0 {
		t.Errorf("levels %v→%v", drv.V0, drv.V1)
	}
}

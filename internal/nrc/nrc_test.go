package nrc

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

func invCurve(t *testing.T) *Curve {
	t.Helper()
	tt := tech.Tech130()
	inv := cell.MustNew(tt, "INV", 1)
	// Receiver input quiet high (victim net held at VDD), downward glitches.
	c, _, err := Characterize(context.Background(), inv, cell.State{"A": true}, "A", Options{
		Widths: []float64{100e-12, 300e-12, 900e-12},
		Dt:     2e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCurveMonotonicity(t *testing.T) {
	c := invCurve(t)
	for i := 1; i < len(c.Heights); i++ {
		if c.Heights[i] > c.Heights[i-1]+0.011 {
			t.Errorf("failing height increased with width: %v", c.Heights)
		}
	}
}

func TestCurvePlausibleLevels(t *testing.T) {
	c := invCurve(t)
	vdd := 1.2
	// A very wide glitch approaches the DC noise margin: it must fail well
	// below the full swing but above a small fraction of VDD.
	wide := c.Heights[len(c.Heights)-1]
	if wide < 0.2*vdd || wide > 0.9*vdd {
		t.Errorf("wide-glitch failing height %v V implausible", wide)
	}
	// A narrow glitch needs a larger height than a wide one (or is
	// unfailable).
	narrow := c.Heights[0]
	if !math.IsInf(narrow, 1) && narrow < wide {
		t.Errorf("narrow glitch fails lower than wide: %v < %v", narrow, wide)
	}
}

func TestFailsAndMargin(t *testing.T) {
	c := invCurve(t)
	w := 300e-12
	hf := c.FailingHeight(w)
	if math.IsInf(hf, 1) {
		t.Skip("300 ps glitch unfailable for this receiver")
	}
	if !c.Fails(hf+0.05, w) {
		t.Error("glitch above the curve does not fail")
	}
	if c.Fails(hf-0.1, w) {
		t.Error("glitch below the curve fails")
	}
	if m := c.MarginV(hf-0.1, w); math.Abs(m-0.1) > 1e-9 {
		t.Errorf("margin = %v, want 0.1", m)
	}
}

func TestFailingHeightInterpolation(t *testing.T) {
	c := &Curve{
		Widths:  []float64{100e-12, 300e-12},
		Heights: []float64{0.9, 0.5},
	}
	if got := c.FailingHeight(200e-12); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("interpolated = %v, want 0.7", got)
	}
	if got := c.FailingHeight(50e-12); got != 0.9 {
		t.Errorf("clamp below = %v", got)
	}
	if got := c.FailingHeight(1e-9); got != 0.5 {
		t.Errorf("clamp above = %v", got)
	}
}

func TestInfinityHandling(t *testing.T) {
	c := &Curve{
		Widths:  []float64{100e-12, 300e-12},
		Heights: []float64{math.Inf(1), 0.6},
	}
	if c.Fails(5.0, 100e-12) {
		t.Error("unfailable width reported as failing")
	}
	if !math.IsInf(c.MarginV(0.3, 100e-12), 1) {
		t.Error("margin at unfailable width should be +Inf")
	}
	// Between an Inf and a finite point, be conservative (use the finite).
	if got := c.FailingHeight(200e-12); got != 0.6 {
		t.Errorf("mixed interpolation = %v, want 0.6", got)
	}
}

func TestCharacterizeUnknownPin(t *testing.T) {
	tt := tech.Tech130()
	inv := cell.MustNew(tt, "INV", 1)
	if _, _, err := Characterize(context.Background(), inv, cell.State{"A": true}, "Q", Options{Widths: []float64{1e-10}}); err == nil {
		t.Error("unknown pin accepted")
	}
}

func TestNAND2ReceiverCurve(t *testing.T) {
	tt := tech.Tech130()
	nand := cell.MustNew(tt, "NAND2", 1)
	st, err := nand.SensitizedState("A", false) // output low, sensitised through A
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Characterize(context.Background(), nand, st, "A", Options{
		Widths: []float64{200e-12, 600e-12},
		Dt:     2e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Heights) != 2 {
		t.Fatalf("heights = %v", c.Heights)
	}
}

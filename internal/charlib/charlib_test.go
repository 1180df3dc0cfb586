package charlib

import (
	"context"
	"math"
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

func measure(w *wave.Waveform, quiet float64) wave.NoiseMetrics {
	return wave.MeasureNoise(w, quiet)
}

func nand2Table(t *testing.T, n int) *LoadCurve {
	t.Helper()
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "NAND2", 1)
	st, err := cl.SensitizedState("B", true) // A=1, B=0: the paper's victim
	if err != nil {
		t.Fatal(err)
	}
	lc, _, err := characterizeLoadCurve(context.Background(), cl, st, "B", LoadCurveOptions{NVin: n, NVout: n}, true)
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func TestLoadCurveQuietPointNearZero(t *testing.T) {
	lc := nand2Table(t, 31)
	i, _, _ := lc.Eval(0, 1.2)
	// At the quiet point the driver sources only leakage-scale current.
	if math.Abs(i) > 1e-6 {
		t.Errorf("quiet current = %v A, want ~0", i)
	}
}

func TestLoadCurveRestoringCurrent(t *testing.T) {
	lc := nand2Table(t, 31)
	// Output drooping below VDD with the input quiet: the PMOS must source
	// positive (restoring) current into the net.
	i, _, _ := lc.Eval(0, 0.8)
	if i <= 0 {
		t.Errorf("restoring current = %v, want > 0", i)
	}
	// With the noisy input high (NMOS path on, PMOS off) and the output
	// high, the cell must sink current (contention resolved toward low).
	i, _, _ = lc.Eval(1.2, 1.2)
	if i >= 0 {
		t.Errorf("pull-down current = %v, want < 0", i)
	}
}

// The essence of the paper: the restoring current saturates. Doubling the
// droop must yield clearly less than double the current once the holding
// device leaves its linear region, so a holding-resistance model
// extrapolated from the quiet point overestimates the driver's strength.
func TestLoadCurveSaturatesNonlinearly(t *testing.T) {
	lc := nand2Table(t, 61)
	g := lc.HoldingConductance(0, 1.2)
	if g <= 0 {
		t.Fatalf("holding conductance = %v", g)
	}
	droop := 0.8 // large noise excursion
	iActual, _, _ := lc.Eval(0, 1.2-droop)
	iLinear := g * droop
	if iActual >= iLinear {
		t.Errorf("restoring current %v A at %.1f V droop is not sub-linear (linear model %v A)",
			iActual, droop, iLinear)
	}
	// The shortfall should be substantial (tens of percent), otherwise
	// superposition would not err the way Table 1 shows.
	if iActual > 0.85*iLinear {
		t.Errorf("non-linearity too weak: actual %v vs linear %v", iActual, iLinear)
	}
}

func TestHoldingResistancePlausible(t *testing.T) {
	lc := nand2Table(t, 31)
	r := lc.HoldingResistance(0, 1.2)
	// A unit-drive 0.13 µm PMOS holding resistance: hundreds of Ω to a few
	// kΩ.
	if r < 100 || r > 20000 {
		t.Errorf("holding resistance = %v Ω, implausible", r)
	}
}

func TestLoadCurveWeakenedHolding(t *testing.T) {
	lc := nand2Table(t, 61)
	// During an input glitch the holding PMOS turns off and the NMOS stack
	// turns on: at vin = VDD the "holding" conductance must collapse or go
	// anti-restoring compared to the quiet point.
	gQuiet := lc.HoldingConductance(0, 1.2)
	iGlitch, _, _ := lc.Eval(1.2, 1.1)
	// With the input high, even a small droop sees *sinking* current
	// (driving the output further down), not restoring current.
	if iGlitch >= 0 {
		t.Errorf("current during glitch = %v, want < 0 (pull-down wins)", iGlitch)
	}
	_ = gQuiet
}

func TestEvalMatchesGridAndClamps(t *testing.T) {
	lc := nand2Table(t, 31)
	// Exactly on a grid point.
	iv, io := 10, 20
	vin := lc.VinMin + float64(iv)*lc.dvin()
	vout := lc.VoutMin + float64(io)*lc.dvout()
	i, _, _ := lc.Eval(vin, vout)
	if math.Abs(i-lc.I[iv*lc.NVout+io]) > 1e-12 {
		t.Errorf("grid point mismatch: %v vs %v", i, lc.I[iv*lc.NVout+io])
	}
	// Far outside: clamped, finite.
	i, _, _ = lc.Eval(99, -99)
	if math.IsNaN(i) || math.IsInf(i, 0) {
		t.Errorf("clamped eval not finite: %v", i)
	}
}

func TestEvalDerivativesMatchFD(t *testing.T) {
	lc := nand2Table(t, 31)
	const h = 1e-4
	// Points chosen strictly inside interpolation cells: bilinear
	// derivatives are discontinuous exactly on grid lines.
	for _, pt := range [][2]float64{{0.3, 0.9}, {0.63, 0.58}, {1.01, 1.13}} {
		vin, vout := pt[0], pt[1]
		_, gin, gout := lc.Eval(vin, vout)
		ip, _, _ := lc.Eval(vin+h, vout)
		im, _, _ := lc.Eval(vin-h, vout)
		if fd := (ip - im) / (2 * h); math.Abs(fd-gin) > 1e-6+0.02*math.Abs(gin) {
			t.Errorf("dI/dVin at %v: %v vs FD %v", pt, gin, fd)
		}
		ip, _, _ = lc.Eval(vin, vout+h)
		im, _, _ = lc.Eval(vin, vout-h)
		if fd := (ip - im) / (2 * h); math.Abs(fd-gout) > 1e-6+0.02*math.Abs(gout) {
			t.Errorf("dI/dVout at %v: %v vs FD %v", pt, gout, fd)
		}
	}
}

func TestCharacterizeUnknownPin(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	if _, _, err := characterizeLoadCurve(context.Background(), cl, cell.State{"A": false}, "Z", LoadCurveOptions{NVin: 3, NVout: 3}, true); err == nil {
		t.Error("unknown noisy pin accepted")
	}
}

func smallPropTable(t *testing.T) *PropTable {
	t.Helper()
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "NAND2", 1)
	st, _ := cl.SensitizedState("B", true)
	pt, _, err := characterizePropagation(context.Background(), cl, st, "B", PropOptions{
		Heights: []float64{0.4, 0.8, 1.2},
		Widths:  []float64{150e-12, 400e-12},
		Loads:   []float64{30e-15, 120e-15},
		Dt:      2e-12,
	}, propSeeded)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPropagationMonotonicInHeight(t *testing.T) {
	pt := smallPropTable(t)
	for wi := range pt.Widths {
		for li := range pt.Loads {
			if pt.Peak[2][wi][li] <= pt.Peak[0][wi][li] {
				t.Errorf("w=%d l=%d: peak not increasing with input height: %v vs %v",
					wi, li, pt.Peak[0][wi][li], pt.Peak[2][wi][li])
			}
		}
	}
}

func TestPropagationPolarityAndMagnitude(t *testing.T) {
	pt := smallPropTable(t)
	// NAND2 output high + upward glitch on B → downward output noise.
	if pt.OutSign != -1 {
		t.Errorf("OutSign = %v, want -1", pt.OutSign)
	}
	// A sub-threshold input glitch propagates almost nothing.
	if p := pt.Peak[0][0][1]; p > 0.15 {
		t.Errorf("0.4 V input glitch propagates %v V, implausibly large", p)
	}
	// A full-swing wide glitch propagates a large fraction of the swing.
	if p := pt.Peak[2][1][0]; p < 0.5 {
		t.Errorf("1.2 V/400 ps glitch propagates only %v V", p)
	}
	if mp := pt.MaxPeak(); mp > 1.3 {
		t.Errorf("max peak %v exceeds swing", mp)
	}
}

func TestPropagationHeavierLoadFiltersNoise(t *testing.T) {
	pt := smallPropTable(t)
	// For a short glitch, the heavier load must attenuate the output peak.
	if pt.Peak[1][0][1] >= pt.Peak[1][0][0] {
		t.Errorf("peak did not decrease with load: %v vs %v", pt.Peak[1][0][0], pt.Peak[1][0][1])
	}
}

func TestLookupInterpolatesAndClamps(t *testing.T) {
	pt := smallPropTable(t)
	pk, ar := pt.Lookup(0.8, 150e-12, 30e-15)
	if math.Abs(pk-pt.Peak[1][0][0]) > 1e-12 || math.Abs(ar-pt.Area[1][0][0]) > 1e-18 {
		t.Errorf("exact lookup mismatch")
	}
	// Between grid lines: bounded by neighbours.
	pk, _ = pt.Lookup(0.6, 150e-12, 30e-15)
	lo, hi := pt.Peak[0][0][0], pt.Peak[1][0][0]
	if pk < math.Min(lo, hi)-1e-12 || pk > math.Max(lo, hi)+1e-12 {
		t.Errorf("interpolated %v outside [%v,%v]", pk, lo, hi)
	}
	// Clamped outside.
	pk, _ = pt.Lookup(99, 150e-12, 30e-15)
	if math.Abs(pk-pt.Peak[2][0][0]) > 1e-12 {
		t.Errorf("clamp above failed: %v", pk)
	}
}

func TestPropWaveformReconstruction(t *testing.T) {
	pt := smallPropTable(t)
	w := pt.Waveform(1.2, 400e-12, 30e-15, 1e-9)
	peak, area := pt.Lookup(1.2, 400e-12, 30e-15)
	// Reconstructed triangle reproduces the looked-up metrics.
	got := measure(w, pt.QuietOut)
	if math.Abs(got.Peak-peak) > 1e-9 {
		t.Errorf("reconstructed peak %v, want %v", got.Peak, peak)
	}
	if math.Abs(got.Area-area) > 1e-15 {
		t.Errorf("reconstructed area %v, want %v", got.Area, area)
	}
	if math.Abs(got.TPeak-1e-9) > 1e-12 {
		t.Errorf("apex at %v, want 1e-9", got.TPeak)
	}
}

func TestBracket(t *testing.T) {
	xs := []float64{1, 2, 4}
	if i, f := bracket(xs, 0.5); i != 0 || f != 0 {
		t.Errorf("below: %d %v", i, f)
	}
	if i, f := bracket(xs, 3); i != 1 || math.Abs(f-0.5) > 1e-12 {
		t.Errorf("mid: %d %v", i, f)
	}
	if i, f := bracket(xs, 9); i != 1 || f != 1 {
		t.Errorf("above: %d %v", i, f)
	}
	if i, f := bracket([]float64{7}, 3); i != 0 || f != 0 {
		t.Errorf("single: %d %v", i, f)
	}
}

func TestCharacterizePropagationUnknownPin(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	_, _, err := characterizePropagation(context.Background(), cl, cell.State{"A": false}, "Z", PropOptions{
		Heights: []float64{0.4}, Widths: []float64{100e-12}, Loads: []float64{10e-15}, Dt: 2e-12,
	}, propSeeded)
	if err == nil || !strings.Contains(err.Error(), `no pin "Z"`) {
		t.Fatalf("unknown pin: err = %v, want 'no pin' error", err)
	}
}

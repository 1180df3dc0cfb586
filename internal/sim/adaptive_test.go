package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// adaptiveRig is an inverter of card tc driven by a triangular glitch
// into a load, with a saturated ramp coupled into its output through a
// resistor and a PWL current source on it, so three sources of three kinds
// carry breakpoints, some of them off the 2 ps grid.
func adaptiveRig(t *testing.T, tc *tech.Tech) (*Session, []float64, []float64) {
	t.Helper()
	inv := cell.MustNew(tc, "INV", 1)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	ckt.AddV("v_A", "in_A", "0", wave.Triangle(0, 0.8, 100e-12, 300e-12))
	if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", 30e-15)
	ckt.AddV("v_r", "agg", "0", wave.SaturatedRamp(0, 0.5, 231e-12, 77e-12))
	ckt.AddR("rc", "agg", "out", 20e3)
	ckt.AddI("i_p", "0", "out", wave.FromPoints(
		[]float64{0, 150.5e-12, 180e-12, 600e-12},
		[]float64{0, 0, 2e-6, 2e-6}))
	sess, err := NewSession(Compile(ckt), 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	sess.Seed(true)
	kinks := []float64{100e-12, 150.5e-12, 180e-12, 231e-12, 250e-12, 308e-12, 400e-12}
	guards := []float64{100e-12 - 1e-15, 400e-12 + 1e-15, 231e-12 - 1e-15, 308e-12 + 1e-15}
	return sess, kinks, guards
}

// TestAdaptiveLandsEveryBreakpoint holds the adaptive run to its time
// axis: every knot where a source's slope changes is a sample, the 1 fs
// guard knots of Triangle and SaturatedRamp (which join two flat pieces)
// are not, no step is shorter than Dt/4 unless a breakpoint cut it, the
// run ends where the fixed grid does, and it takes fewer steps.
func TestAdaptiveLandsEveryBreakpoint(t *testing.T) {
	sess, kinks, guards := adaptiveRig(t, tech.Tech130())
	const tstop = 1.5e-9
	var res Result
	if err := sess.RunTransientAdaptive(context.Background(), &res, tstop); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinks {
		if !slices.Contains(res.Times, k) {
			t.Errorf("breakpoint %.4g ps is not a sample", k*1e12)
		}
	}
	for _, g := range guards {
		if slices.Contains(res.Times, g) {
			t.Errorf("guard knot %.6g ps is a sample", g*1e12)
		}
	}
	for i := 1; i < len(res.Times); i++ {
		h := res.Times[i] - res.Times[i-1]
		if h <= 0 {
			t.Fatalf("time %d not increasing: %g after %g", i, res.Times[i], res.Times[i-1])
		}
		if h < 0.5e-12*(1-1e-9) && !slices.Contains(kinks, res.Times[i]) {
			t.Errorf("step of %.4g ps ending at %.6g ps is shorter than Dt/4 and ends on no breakpoint", h*1e12, res.Times[i]*1e12)
		}
	}
	n, _ := GridSteps(tstop, 2e-12, 1)
	if end := res.Times[len(res.Times)-1]; end != float64(n)*2e-12 {
		t.Errorf("run ends at %g, the fixed grid at %g", end, float64(n)*2e-12)
	}
	if st := sess.Stats(); st.TransientSteps >= int64(n) {
		t.Errorf("adaptive run took %d steps, the fixed grid %d", st.TransientSteps, n)
	}
}

// TestAdaptiveMatchesFineGrid checks the adaptive run against a fixed
// grid at Dt/8 on the breakpoint rig, by the glitch metrics the
// propagation tables record: the output's peak and area deviation from
// its quiet level each agree with the reference to 0.05 %. Per waveform
// the adaptive run may err more or less than the fixed grid at Dt; the
// table-level comparison is charlib's TestAdaptivePropTableAccuracy.
func TestAdaptiveMatchesFineGrid(t *testing.T) {
	ctx := context.Background()
	sess, _, _ := adaptiveRig(t, tech.Tech130())
	const tstop = 1.5e-9
	var ad, fixed Result
	if err := sess.RunTransientAdaptive(ctx, &ad, tstop); err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTransient(ctx, &fixed, tstop, nil); err != nil {
		t.Fatal(err)
	}
	fine, err := NewSession(sess.prog, 0.25e-12)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := transientOf(ctx, fine, tstop)
	if err != nil {
		t.Fatal(err)
	}
	quiet := ref.At("out", 0)
	want := wave.MeasureNoise(ref.Waveform("out"), quiet)
	rel := func(r *Result) (float64, float64) {
		m := wave.MeasureNoise(r.Waveform("out"), quiet)
		return math.Abs(m.Peak-want.Peak) / want.Peak, math.Abs(m.Area-want.Area) / want.Area
	}
	ap, aa := rel(&ad)
	fp, fa := rel(&fixed)
	t.Logf("relative error against Dt/8: adaptive peak %.3g area %.3g over %d samples, fixed peak %.3g area %.3g over %d",
		ap, aa, ad.Steps(), fp, fa, fixed.Steps())
	if ap > 5e-4 || aa > 5e-4 {
		t.Errorf("adaptive run errs %.3g in peak and %.3g in area, want ≤ 5e-4", ap, aa)
	}
}

// TestAdaptiveNLCapChargeConservation is TestNLCapChargeConservation on
// the adaptive axis: over a closed charge/hold/discharge cycle the
// trapezoidal integral of the cap current over the run's own, non-uniform
// samples matches the analytic stored charge at the end of every segment
// and returns to zero, each within 1 % of Q_max, and the steps did vary.
func TestAdaptiveNLCapChargeConservation(t *testing.T) {
	cgs := device.CapParams{Cp: 3e-15, Co: 3e-15, P0: -1.2, P1: 2.5}
	ckt := circuit.New()
	ckt.AddV("vin", "in", "0", wave.FromPoints(
		[]float64{0, 100e-12, 600e-12, 1200e-12, 1700e-12, 2200e-12},
		[]float64{0, 0, 1.2, 1.2, 0, 0},
	))
	ckt.AddR("r", "in", "g", 10e3)
	ckt.AddM("m1", "0", "g", "0", capOnlyNMOS(cgs))
	sess, err := NewSession(Compile(ckt), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := sess.RunTransientAdaptive(context.Background(), &res, 2.2e-9); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.NLStampEvals == 0 {
		t.Fatal("no nonlinear cap stamps were evaluated")
	}
	if st.TransientSteps >= 2200 {
		t.Fatalf("adaptive run took %d steps, the fixed grid 2200", st.TransientSteps)
	}
	const r = 10e3
	cur := func(k int) float64 { return (res.At("in", k) - res.At("g", k)) / r }
	qMax := cgs.Charge(1.2)
	integral := 0.0
	for k := 1; k < res.Steps(); k++ {
		integral += 0.5 * (cur(k) + cur(k-1)) * (res.Times[k] - res.Times[k-1])
		if !slices.Contains([]float64{600e-12, 1200e-12, 1700e-12, 2200e-12}, res.Times[k]) {
			continue
		}
		if want := cgs.Charge(res.At("g", k)); math.Abs(integral-want) > 0.01*qMax {
			t.Errorf("t=%.0f ps: ∮i dt = %.4g C, ΔQ analytic = %.4g C (|Δ| %.3g > 1%% of Qmax %.3g)",
				res.Times[k]*1e12, integral, want, math.Abs(integral-want), qMax)
		}
	}
	if math.Abs(integral) > 0.01*qMax {
		t.Errorf("closed charge/discharge cycle leaked %.3g C (Qmax %.3g)", integral, qMax)
	}
	t.Logf("%d steps, cycle residue %.3g C of Qmax %.3g", st.TransientSteps, integral, qMax)
}

// TestAdaptiveStepAllocFree asserts the RunTransient contract on the
// adaptive loop, with constant and with NLMOS gate caps: once a Result
// has been filled, a repeated adaptive run — breakpoints, restamps,
// rejections and the error estimate included — allocates nothing.
func TestAdaptiveStepAllocFree(t *testing.T) {
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech130().WithNonlinearCaps()} {
		t.Run(fmt.Sprintf("nlcaps=%v", tc.NonlinearCaps()), func(t *testing.T) {
			sess, _, _ := adaptiveRig(t, tc)
			if nl := len(sess.prog.nlcaps) > 0; nl != tc.NonlinearCaps() {
				t.Fatalf("rig has NLMOS caps %v on a card with %v", nl, tc.NonlinearCaps())
			}
			ctx := context.Background()
			res := &Result{}
			if err := sess.RunTransientAdaptive(ctx, res, 1e-9); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := sess.RunTransientAdaptive(ctx, res, 1e-9); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm RunTransientAdaptive allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

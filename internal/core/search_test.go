package core

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/mor"
	"stanoise/internal/wave"
)

// agreeUntil is exact and closed: bitwise-identical laws agree forever, a
// Thevenin ramp or VCCS input moved in time agrees up to the earlier first
// knot, and any other difference — RTh, V[0], load curve, Miller cap, the
// input waveform's level, a port's type or count, or a caller-defined
// source even against itself — agrees nowhere.
func TestAgreeUntil(t *testing.T) {
	lc := &charlib.LoadCurve{VinMax: 1.2, VoutMax: 1.2, NVin: 2, NVout: 2, I: []float64{1.2 / 300, 0, 0, -1.2 / 300}}
	lc2 := *lc
	ramp := func(t0 float64) *wave.Waveform { return wave.SaturatedRamp(0, 1.2, t0, 60e-12) }
	glitch := func(base, t0 float64) *wave.Waveform { return wave.Triangle(base, 0.4, t0, 200e-12) }
	set := func(th *TheveninPort, vc *VCCSPort) []PortSource {
		return []PortSource{vc, th, &HoldingPort{G: 1e-3, V0: 1.2}, OpenPort{}}
	}
	th := func(w *wave.Waveform, r float64) *TheveninPort { return &TheveninPort{W: w, RTh: r} }
	vc := func(l *charlib.LoadCurve, w *wave.Waveform, c float64) *VCCSPort {
		return &VCCSPort{LC: l, Vin: w, MillerC: c}
	}
	a := set(th(ramp(200e-12), 1e3), vc(lc, glitch(0, 300e-12), 2e-15))
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		b    []PortSource
		want float64
	}{
		{"identical", set(th(ramp(200e-12), 1e3), vc(lc, glitch(0, 300e-12), 2e-15)), inf},
		{"ramp later", set(th(ramp(260e-12), 1e3), vc(lc, glitch(0, 300e-12), 2e-15)), ramp(200e-12).T[0]},
		{"ramp earlier", set(th(ramp(140e-12), 1e3), vc(lc, glitch(0, 300e-12), 2e-15)), ramp(140e-12).T[0]},
		{"ramp held", set(th(wave.Constant(0), 1e3), vc(lc, glitch(0, 300e-12), 2e-15)), 0},
		{"glitch later", set(th(ramp(200e-12), 1e3), vc(lc, glitch(0, 500e-12), 2e-15)), glitch(0, 300e-12).T[0]},
		{"both moved", set(th(ramp(180e-12), 1e3), vc(lc, glitch(0, 250e-12), 2e-15)), ramp(180e-12).T[0]},
		{"RTh", set(th(ramp(200e-12), 1e3+1e-9), vc(lc, glitch(0, 300e-12), 2e-15)), math.Inf(-1)},
		{"V[0]", set(th(wave.SaturatedRamp(1e-12, 1.2, 200e-12, 60e-12), 1e3), vc(lc, glitch(0, 300e-12), 2e-15)), math.Inf(-1)},
		{"LC", set(th(ramp(200e-12), 1e3), vc(&lc2, glitch(0, 300e-12), 2e-15)), math.Inf(-1)},
		{"MillerC", set(th(ramp(200e-12), 1e3), vc(lc, glitch(0, 300e-12), 0)), math.Inf(-1)},
		{"Vin", set(th(ramp(200e-12), 1e3), vc(lc, glitch(1e-3, 300e-12), 2e-15)), math.Inf(-1)},
		{"port type", []PortSource{a[0], a[1], OpenPort{}, OpenPort{}}, math.Inf(-1)},
		{"port count", a[:3], math.Inf(-1)},
	} {
		if got := agreeUntil(a, tc.b); got != tc.want {
			t.Errorf("%s: agreeUntil = %v, want %v", tc.name, got, tc.want)
		}
		if got := agreeUntil(tc.b, a); got != tc.want {
			t.Errorf("%s, swapped: agreeUntil = %v, want %v", tc.name, got, tc.want)
		}
	}
	law := portLaw(func(t, v float64) (float64, float64) { return 0, 0 })
	if got := agreeUntil([]PortSource{law}, []PortSource{law}); got != math.Inf(-1) {
		t.Errorf("caller-defined source against itself: agreeUntil = %v, want -Inf", got)
	}
	if got := agreeUntil([]PortSource{&HoldingPort{G: 1e-3, V0: 1.2}}, []PortSource{&HoldingPort{G: 2e-3, V0: 1.2}}); got != math.Inf(-1) {
		t.Errorf("holding conductance: agreeUntil = %v, want -Inf", got)
	}
}

// A search's runs share one engine plan while its key holds, and every
// part of the key — the model, the step, the port order, a linear port's
// slope, a Miller cap and V0 — builds a new plan when it changes. Each
// run, on a reused plan or a new one, reads a fresh run's peak bit for
// bit.
func TestPlanKey(t *testing.T) {
	ctx := context.Background()
	red := reducedLadder(t, 8, 50, 10e-15)
	lc := &charlib.LoadCurve{VinMax: 1.2, VoutMax: 1.2, NVin: 2, NVout: 2, I: []float64{1.2 / 300, 0, 0, -1.2 / 300}}
	sources := func(rTh, miller float64) []PortSource {
		return []PortSource{
			&VCCSPort{LC: lc, Vin: wave.SaturatedRamp(0, 1.2, 100e-12, 80e-12), MillerC: miller},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 150e-12, 60e-12), RTh: rTh},
		}
	}
	type run struct {
		red  *mor.Reduced
		srcs []PortSource
		v0   []float64
		dt   float64
	}
	base := run{red, sources(300, 0), []float64{1.2, 1.2}, 1e-12}
	s := newPeakSearch(red, base.dt)
	peak := func(name string, r run, s *peakSearch) float64 {
		p, _, err := enginePeak(ctx, r.red, r.srcs, r.v0, EngineOptions{Dt: r.dt, TStop: 1e-9}, 0, 1.2, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	peak("base", base, s)
	plan := s.plan
	if peak("same key", run{red, sources(300, 0), []float64{1.2, 1.2}, 1e-12}, s); s.plan != plan {
		t.Error("a run with the same key built a new plan")
	}
	swapped := run{red, []PortSource{&HoldingPort{G: 1e-3, V0: 1.2}, &VCCSPort{LC: lc, Vin: wave.Constant(0)}}, base.v0, base.dt}
	for _, tc := range []struct {
		name string
		r    run
	}{
		{"model", run{reducedLadder(t, 8, 50, 10e-15), base.srcs, base.v0, base.dt}},
		{"step", run{red, base.srcs, base.v0, 2e-12}},
		{"port order", swapped},
		{"slope", run{red, sources(301, 0), base.v0, base.dt}},
		{"Miller cap", run{red, sources(300, 2e-15), base.v0, base.dt}},
		{"V0", run{red, base.srcs, []float64{1.2, 1.1}, base.dt}},
	} {
		s.plan = plan
		got := peak(tc.name, tc.r, s)
		if s.plan == plan {
			t.Errorf("%s: a run with another key reused the plan", tc.name)
		}
		if want := peak(tc.name, tc.r, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: peak %v on the search's plan, %v fresh", tc.name, got, want)
		}
	}
}

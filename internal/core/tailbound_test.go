package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// tailCase is one engine run the certificate is checked on: a reduced
// model, its port sources and quiet levels, the grid, and the watched port.
type tailCase struct {
	name  string
	red   *mor.Reduced
	srcs  []PortSource
	v0    []float64
	opts  EngineOptions
	port  int
	quiet float64
}

// checkTailBound runs c to TStop and, on the same run taken peak-only with
// the certificate inspected at every settled step K, requires the bound at
// K to cover every later sample's |v − quiet|. It also requires the
// peak-only run's answer to equal wave.MeasureNoise on the full waveform
// bit for bit. It returns the number of bounds checked: 0 when the run is
// outside the certificate's preconditions.
func checkTailBound(t *testing.T, c tailCase) (checks int) {
	t.Helper()
	full, ferr := RunEngine(context.Background(), c.red, c.srcs, c.v0, c.opts)
	var dev []float64
	if ferr == nil {
		for _, v := range full.PortV[c.port] {
			dev = append(dev, math.Abs(v-c.quiet))
		}
	}
	// rest[k] = max over j > k of dev[j].
	rest := make([]float64, len(dev))
	for k := len(dev) - 2; k >= 0; k-- {
		rest[k] = math.Max(rest[k+1], dev[k+1])
	}
	violations := 0
	pw := &peakWatch{port: c.port, quiet: c.quiet, inspect: func(k int, b float64) {
		checks++
		if ferr == nil && !(b >= rest[k]) && violations < 3 {
			violations++
			t.Errorf("%s: bound %.6g V at step %d, but a later sample deviates %.6g V", c.name, b, k, rest[k])
		}
	}}
	_, err := runEngine(context.Background(), c.red, c.srcs, c.v0, c.opts, pw)
	if (err == nil) != (ferr == nil) {
		t.Fatalf("%s: inspected run err = %v, full run err = %v", c.name, err, ferr)
	}
	if ferr != nil {
		return checks
	}
	peak, tPeak, err := enginePeak(context.Background(), c.red, c.srcs, c.v0, c.opts, c.port, c.quiet, nil)
	if err != nil {
		t.Fatalf("%s: peak-only run: %v", c.name, err)
	}
	want := wave.MeasureNoise(full.Waveform(c.port), c.quiet)
	if math.Float64bits(peak) != math.Float64bits(want.Peak) || math.Float64bits(tPeak) != math.Float64bits(want.TPeak) {
		t.Errorf("%s: peak-only run %v at %v, full run %v at %v", c.name, peak, tPeak, want.Peak, want.TPeak)
	}
	return checks
}

// clusterTailCases are the source sets the alignment search runs peak-only
// on a clusterModels rig: the macromodel probe at several offsets of its
// last aggressor, and AlignPeaks' timing run of each aggressor.
func clusterTailCases(t *testing.T, tt *tech.Tech, nAgg int) []tailCase {
	t.Helper()
	c, models := clusterModels(t, tt, nAgg)
	opts := fastEvalOptions().normalize(c)
	eo := EngineOptions{Dt: opts.Dt, TStop: opts.tstop}
	var cases []tailCase
	base := c.Aggressors[nAgg-1].Offset
	for _, off := range []float64{-80e-12, -20e-12, 0, 40e-12, 160e-12} {
		c.Aggressors[nAgg-1].Offset = base + off
		cases = append(cases, tailCase{
			name: fmt.Sprintf("%s/%dagg/probe%+gps", tt.Name, nAgg, off*1e12),
			red:  models.Red, srcs: c.macromodelSources(models, opts), v0: models.V0, opts: eo,
			port: models.VicPort, quiet: c.QuietVictimLevel(),
		})
	}
	c.Aggressors[nAgg-1].Offset = base
	for i := range c.Aggressors {
		srcs := c.portSources(models, &HoldingPort{G: models.HoldG, V0: models.QuietVic}, func(j int) bool { return j == i })
		cases = append(cases, tailCase{
			name: fmt.Sprintf("%s/%dagg/timing%d", tt.Name, nAgg, i),
			red:  models.Red, srcs: srcs, v0: models.V0, opts: eo,
			port: models.VicPort, quiet: models.QuietVic,
		})
	}
	return cases
}

// pwlRow is a load-curve table of two vin rows, 0 V and 1.2 V, over vout
// in [0, 2.4] V: the current at vout = 1.2 V is i0 and the slope of each
// cell is slopes[cell]; the 1.2 V row draws pull less current.
func pwlRow(i0 float64, slopes []float64, pull float64) *charlib.LoadCurve {
	nv := len(slopes) + 1
	dy := 2.4 / float64(nv-1)
	row := make([]float64, nv)
	mid := (nv - 1) / 2
	for k := mid + 1; k < nv; k++ {
		row[k] = row[k-1] + slopes[k-1]*dy
	}
	for k := mid - 1; k >= 0; k-- {
		row[k] = row[k+1] - slopes[k]*dy
	}
	off := i0 - row[mid]
	lc := &charlib.LoadCurve{VinMin: 0, VinMax: 1.2, VoutMin: 0, VoutMax: 2.4, NVin: 2, NVout: nv, I: make([]float64, 2*nv)}
	for k, v := range row {
		lc.I[k] = v + off
		lc.I[nv+k] = v + off - pull
	}
	return lc
}

// randomTailCase is a generated model: random symmetric positive definite
// Cr and positive semidefinite Gr of order 3–6, random port incidence, a
// victim VCCS on a random monotone piecewise-linear row under a glitch at
// port 0, a Thevenin ramp at port 1 and an open port 2.
func randomTailCase(rng *rand.Rand, i int) tailCase {
	q := 3 + rng.IntN(4)
	sym := func(scale float64, rank int) *linalg.Matrix {
		m := linalg.NewMatrix(q, q)
		for r := 0; r < rank; r++ {
			v := make([]float64, q)
			for a := range v {
				v[a] = rng.NormFloat64()
			}
			for a := 0; a < q; a++ {
				for b := 0; b < q; b++ {
					m.Add(a, b, scale*v[a]*v[b])
				}
			}
		}
		return m
	}
	cr := sym(5e-15, q+1)
	gr := sym(1e-3*math.Pow(10, 2*rng.Float64()-1), q-1-rng.IntN(2))
	b := linalg.NewMatrix(q, 3)
	for a := range b.Data {
		b.Data[a] = rng.NormFloat64()
	}
	slopes := make([]float64, 24)
	gv := 1e-4 * math.Pow(10, 1.5*rng.Float64())
	for k := range slopes {
		if rng.IntN(4) > 0 {
			slopes[k] = -gv * (0.05 + rng.Float64())
		}
	}
	i0 := 0.0
	if rng.IntN(2) == 0 {
		i0 = gv * 0.05 * rng.NormFloat64()
	}
	red := &mor.Reduced{Gr: gr, Cr: cr, B: b, Ports: []string{"vic", "agg", "far"}, Q: q}
	return tailCase{
		name: fmt.Sprintf("random%02d(Q=%d)", i, q),
		red:  red,
		srcs: []PortSource{
			&VCCSPort{LC: pwlRow(i0, slopes, 3*gv), Vin: wave.Triangle(0, 0.6, 150e-12, 300e-12)},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12+400e-12*rng.Float64(), 60e-12), RTh: 200 + 1800*rng.Float64()},
			OpenPort{},
		},
		v0:    []float64{1.2, 1.2, 1.2},
		opts:  EngineOptions{Dt: 1e-12, TStop: 2e-9},
		quiet: 1.2,
	}
}

// stiffTailCase is a one-state model whose victim port is stiff at the
// step (the driver's conductance ≫ 2Cr/h) and whose settled row is steep
// above quiet and flat below it. After an abrupt pulse of the driver the
// trapezoidal rule rings across quiet, and the state's own norm grows at
// every step from the steep side to the flat one while ‖U − x*‖ falls:
// the case that tells U_K from x_K.
func stiffTailCase() tailCase {
	red := &mor.Reduced{
		Cr:    &linalg.Matrix{Rows: 1, Cols: 1, Data: []float64{1e-17}},
		Gr:    &linalg.Matrix{Rows: 1, Cols: 1, Data: []float64{0}},
		B:     &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 1}},
		Ports: []string{"vic", "drv"}, Q: 1,
	}
	slopes := make([]float64, 24)
	for k := 12; k < 24; k++ {
		slopes[k] = -0.9e-3
	}
	return tailCase{
		name: "stiff",
		red:  red,
		srcs: []PortSource{
			&VCCSPort{LC: pwlRow(0, slopes, 0), Vin: wave.Constant(0)},
			&TheveninPort{W: wave.Trapezoid(1.2, -0.3, 100.5e-12, 1e-14, 50e-12), RTh: 500},
		},
		v0:    []float64{1.2, 1.2},
		opts:  EngineOptions{Dt: 1e-12, TStop: 1e-9},
		quiet: 1.2,
	}
}

// lateRiseTailCase is three RC nodes whose watched port peaks twice: a
// fast aggressor kicks it through a small coupling capacitor, the kick
// decays to well under half its height within a few steps of the last
// source knot, and a slow second driver then pulls it past that height on
// its way to a settled offset of −0.1 V. A stop that reads the decay, not a
// bound, misses the later peak.
func lateRiseTailCase() tailCase {
	const (
		ca, cb, cc, cx = 20e-15, 500e-15, 2e-15, 5e-15 // node caps; cc couples A–C
		g              = 1e-3                          // A–B conductance
	)
	red := &mor.Reduced{
		Cr: &linalg.Matrix{Rows: 3, Cols: 3, Data: []float64{
			ca + cc, 0, -cc,
			0, cb, 0,
			-cc, 0, cx + cc,
		}},
		Gr: &linalg.Matrix{Rows: 3, Cols: 3, Data: []float64{
			g, -g, 0,
			-g, g, 0,
			0, 0, 0,
		}},
		B:     linalg.Identity(3),
		Ports: []string{"a", "b", "c"}, Q: 3,
	}
	return tailCase{
		name: "late-rise",
		red:  red,
		srcs: []PortSource{
			&HoldingPort{G: 1e-3, V0: 1.2},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 50e-12, 50e-12), RTh: 1e4},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 200e-12, 20e-12), RTh: 100},
		},
		v0:    []float64{1.2, 1.2, 1.2},
		opts:  EngineOptions{Dt: 1e-12, TStop: 6e-9},
		quiet: 1.2,
	}
}

// risingTailCase is a one-state model whose settled row rises across quiet:
// a negative resistance the certificate refuses. Certified anyway, the
// state runs away from x* and every bound is overtaken.
func risingTailCase() tailCase {
	red := &mor.Reduced{
		Cr:    &linalg.Matrix{Rows: 1, Cols: 1, Data: []float64{20e-15}},
		Gr:    &linalg.Matrix{Rows: 1, Cols: 1, Data: []float64{1e-4}},
		B:     &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 0.5}},
		Ports: []string{"vic", "agg"}, Q: 1,
	}
	slopes := make([]float64, 24)
	for k := range slopes {
		slopes[k] = -2e-4
	}
	slopes[12], slopes[11] = 4e-4, 4e-4
	return tailCase{
		name: "rising",
		red:  red,
		srcs: []PortSource{
			&VCCSPort{LC: pwlRow(0, slopes, 0), Vin: wave.Constant(0)},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 40e-12), RTh: 1e5},
		},
		v0:    []float64{1.2, 1.2},
		opts:  EngineOptions{Dt: 1e-12, TStop: 2e-9},
		quiet: 1.2,
	}
}

// TestTailBoundCoversRest checks the certificate of DESIGN.md §26 where it
// can fail: at every settled step of full runs, the bound must cover every
// later sample. The runs are the engine-test rigs, every source set the
// alignment search runs peak-only on clusterModels rigs (both cards, with
// and without NLMOS, and at the ss and ff corners; 1–2 aggressors; five
// offsets), and generated models with random monotone rows, one of them
// stiff enough to ring and one whose port peaks again after a deep dip.
// A row that rises must be refused.
func TestTailBoundCoversRest(t *testing.T) {
	var cases []tailCase
	red, srcs, v0, _, _ := coupledLines(t)
	for _, port := range []int{0, 2} {
		cases = append(cases, tailCase{name: fmt.Sprintf("coupled/port%d", port), red: red, srcs: srcs, v0: v0,
			opts: EngineOptions{Dt: 1e-12, TStop: 2e-9}, port: port, quiet: 1.2})
	}
	cases = append(cases, tailCase{name: "ladder", red: reducedLadder(t, 8, 50, 10e-15),
		srcs: []PortSource{&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300}, OpenPort{}},
		v0:   []float64{1.2, 1.2}, opts: EngineOptions{Dt: 1e-12, TStop: 3e-9}, port: 1, quiet: 1.2})
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := tech.CornerByName("ff")
	if err != nil {
		t.Fatal(err)
	}
	cards := []*tech.Tech{tech.Tech130(), tech.Tech90(), tech.Tech130().WithNonlinearCaps(),
		tech.Tech90().WithNonlinearCaps(), ss.Apply(tech.Tech130()), ff.Apply(tech.Tech90())}
	for i, tt := range cards {
		for _, nAgg := range []int{1, 2} {
			if i >= 2 && nAgg == 1 {
				continue // the derived cards run their two-aggressor rigs
			}
			cases = append(cases, clusterTailCases(t, tt, nAgg)...)
		}
	}
	rng := rand.New(rand.NewPCG(29, 26))
	for i := 0; i < 24; i++ {
		cases = append(cases, randomTailCase(rng, i))
	}
	cases = append(cases, stiffTailCase(), lateRiseTailCase())

	certified, checks := 0, 0
	for _, c := range cases {
		n := checkTailBound(t, c)
		if n > 0 {
			certified++
		} else {
			t.Logf("%s: refused", c.name)
		}
		checks += n
	}
	if r := checkTailBound(t, risingTailCase()); r != 0 {
		t.Errorf("rising row: %d bounds checked, want the run refused", r)
	}
	t.Logf("%d bounds checked on %d of %d runs", checks, certified, len(cases))
	if certified < len(cases)*3/4 {
		t.Errorf("certificate applied to %d of %d runs, want at least three quarters", certified, len(cases))
	}
}

// engineSteps runs f and returns the engine runs and steps it took.
func engineSteps(f func()) (runs, steps int64) {
	before := sim.Snapshot()
	f()
	d := sim.Snapshot().Sub(before)
	return d.EngineRuns, d.EngineSteps
}

// Every run outside the certificate's preconditions takes all its steps,
// and returns the full run's answer or error.
func TestTailBoundRefusals(t *testing.T) {
	c, models := clusterModels(t, tech.Tech130(), 1)
	opts := fastEvalOptions().normalize(c)
	eo := EngineOptions{Dt: opts.Dt, TStop: opts.tstop}
	n, err := sim.GridSteps(eo.TStop, eo.Dt, 1)
	if err != nil {
		t.Fatal(err)
	}
	vin := c.victimInputWave()
	vccs := &VCCSPort{LC: models.LC, Vin: vin}
	// A copy of the load curve whose two settled table rows (the rows
	// Eval blends at the quiet input) are edited by f.
	poisoned := func(f func(row []float64)) *VCCSPort {
		lc := *models.LC
		lc.I = append([]float64(nil), lc.I...)
		quietIn := vin.V[len(vin.V)-1]
		ix := int(math.Floor((quietIn - lc.VinMin) / ((lc.VinMax - lc.VinMin) / float64(lc.NVin-1))))
		ix = max(0, min(ix, lc.NVin-2))
		f(lc.I[ix*lc.NVout:][:lc.NVout])
		f(lc.I[(ix+1)*lc.NVout:][:lc.NVout])
		return &VCCSPort{LC: &lc, Vin: vin}
	}
	mid := func() int {
		lc := models.LC
		return int((models.QuietVic - lc.VoutMin) / ((lc.VoutMax - lc.VoutMin) / float64(lc.NVout-1)))
	}()
	for _, tc := range []struct {
		name    string
		vic     PortSource
		tstop   float64
		wantErr error
	}{
		{"miller", &VCCSPort{LC: models.LC, Vin: vin, MillerC: models.MillerC}, 0, nil},
		{"caller-defined", portLaw(vccs.Current), 0, nil},
		// A rising cell far below the operating point: refused, and the
		// run, which never visits it, completes.
		{"non-monotone", poisoned(func(r []float64) { r[1] = r[0] + 1e-9 }), 0, nil},
		// NaN beside the operating point: refused, and the full run ends
		// in the engine's non-convergence error.
		{"nan", poisoned(func(r []float64) { r[mid] = math.NaN() }), 0, sim.ErrNoConvergence},
		{"settles-after-tstop", vccs, vin.End(), nil},
	} {
		srcs := clusterSources(c, models, tc.vic)
		run := eo
		if tc.tstop > 0 {
			run.TStop = tc.tstop
		}
		steps, err := sim.GridSteps(run.TStop, run.Dt, 1)
		if err != nil {
			t.Fatal(err)
		}
		var peak float64
		var perr error
		_, got := engineSteps(func() {
			peak, _, perr = enginePeak(context.Background(), models.Red, srcs, models.V0, run, models.VicPort, models.QuietVic, nil)
		})
		if tc.wantErr != nil {
			if !errors.Is(perr, tc.wantErr) || !strings.HasPrefix(perr.Error(), "core: macromodel Newton did not converge at t=") {
				t.Errorf("%s: err = %v, want %v", tc.name, perr, tc.wantErr)
			}
			continue
		}
		if perr != nil {
			t.Fatalf("%s: %v", tc.name, perr)
		}
		if got != int64(steps) {
			t.Errorf("%s: %d engine steps, want all %d", tc.name, got, steps)
		}
		full, err := RunEngine(context.Background(), models.Red, srcs, models.V0, run)
		if err != nil {
			t.Fatal(err)
		}
		if want := wave.MeasureNoise(full.Waveform(models.VicPort), models.QuietVic).Peak; math.Float64bits(peak) != math.Float64bits(want) {
			t.Errorf("%s: peak %v, full run %v", tc.name, peak, want)
		}
	}

	// A steep row against a small step impedance: m·s_max > ½.
	steep := *models.LC
	steep.I = append([]float64(nil), steep.I...)
	for k := range steep.I {
		steep.I[k] *= 1e4
	}
	vs := &VCCSPort{LC: &steep, Vin: vin}
	srcs := clusterSources(c, models, vs)
	sMax, _, ok := settledRow(vs)
	if !ok {
		t.Fatal("steep row is not monotone")
	}
	var checked bool
	pw := &peakWatch{port: models.VicPort, quiet: models.QuietVic, inspect: func(int, float64) { checked = true }}
	_, got := engineSteps(func() {
		if _, err := runEngine(context.Background(), models.Red, srcs, models.V0, eo, pw); err != nil {
			t.Fatalf("steep row: %v", err)
		}
	})
	if checked || got != int64(n) {
		t.Errorf("steep row (s_max = %g A/V): certified, %d of %d steps; want refused, all steps", sMax, got, n)
	}
}

// checkProbesStopEarly runs the probes of TestMacromodelPeakMatchesEvaluation
// — both cards, 1–2 aggressors, five offsets, Miller off — and requires each
// to stop before TStop, so that test compares stopped probes against full
// evaluations.
func checkProbesStopEarly(t *testing.T) {
	ctx := context.Background()
	for _, tt := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, nAgg := range []int{1, 2} {
			c, models := clusterModels(t, tt, nAgg)
			opts := fastEvalOptions().normalize(c)
			n, err := sim.GridSteps(opts.tstop, opts.Dt, 1)
			if err != nil {
				t.Fatal(err)
			}
			base := c.Aggressors[nAgg-1].Offset
			for _, off := range []float64{-80e-12, -20e-12, 0, 40e-12, 160e-12} {
				c.Aggressors[nAgg-1].Offset = base + off
				runs, steps := engineSteps(func() {
					if _, err := c.macromodelPeak(ctx, models, opts); err != nil {
						t.Fatal(err)
					}
				})
				if runs != 1 || steps >= int64(n) {
					t.Errorf("%s/%dagg offset %+g ps: %d runs, %d of %d steps; want one run stopped early",
						tt.Name, nAgg, off*1e12, runs, steps, n)
				}
			}
		}
	}
}

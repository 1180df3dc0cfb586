package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/circuit"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// reducedLadder builds a reduced model of a simple RC ladder with a port at
// the near end.
func reducedLadder(t *testing.T, n int, rSeg, cSeg float64) *mor.Reduced {
	t.Helper()
	nodes := make([]string, n+1)
	for i := range nodes {
		nodes[i] = "n" + string(rune('a'+i))
	}
	net := mor.NewNetwork(nodes)
	for i := 0; i < n; i++ {
		net.AddR(nodes[i], nodes[i+1], rSeg)
	}
	for i := 0; i <= n; i++ {
		net.AddC(nodes[i], "0", cSeg)
	}
	red, err := mor.Reduce(net, []string{nodes[0], nodes[n]}, mor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return red
}

func TestEngineTheveninStep(t *testing.T) {
	// Thevenin ramp into a reduced RC ladder: the far end must settle to
	// the source's final value.
	red := reducedLadder(t, 8, 50, 10e-15)
	srcs := []PortSource{
		&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300},
		OpenPort{},
	}
	v0 := []float64{1.2, 1.2}
	res, err := RunEngine(context.Background(), red, srcs, v0, EngineOptions{Dt: 1e-12, TStop: 3e-9})
	if err != nil {
		t.Fatal(err)
	}
	far := res.Waveform(1)
	if got := far.At(0); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("initial far = %v", got)
	}
	if got := far.At(3e-9); math.Abs(got-0) > 0.01 {
		t.Errorf("final far = %v, want 0", got)
	}
}

// coupledLines builds two coupled 10-segment RC lines twice: as a reduced
// macromodel with its port sources (victim held by a resistor, aggressor
// driven by a Thevenin ramp, far end open) and as the full linear circuit
// for the general simulator. probes names the full-circuit node of each
// port.
func coupledLines(t *testing.T) (red *mor.Reduced, srcs []PortSource, v0 []float64, ckt *circuit.Circuit, probes []string) {
	t.Helper()
	const (
		nseg = 10
		rSeg = 5.0
		cSeg = 3e-15
		cc   = 6e-15
		rth  = 400.0
		hold = 1500.0
	)
	name := func(l string, j int) string { return l + "_" + string(rune('a'+j)) }
	var nodes []string
	for _, l := range []string{"v", "a"} {
		for j := 0; j <= nseg; j++ {
			nodes = append(nodes, name(l, j))
		}
	}
	net := mor.NewNetwork(nodes)
	ckt = circuit.New()
	vth := wave.SaturatedRamp(1.2, 0, 150e-12, 70e-12)
	for _, l := range []string{"v", "a"} {
		for j := 0; j < nseg; j++ {
			net.AddR(name(l, j), name(l, j+1), rSeg)
			ckt.AddR("r"+name(l, j), name(l, j), name(l, j+1), rSeg)
		}
		for j := 0; j <= nseg; j++ {
			net.AddC(name(l, j), "0", cSeg)
			ckt.AddC("c"+name(l, j), name(l, j), "0", cSeg)
		}
	}
	for j := 0; j <= nseg; j++ {
		net.AddC(name("v", j), name("a", j), cc)
		ckt.AddC("cc"+name("v", j), name("v", j), name("a", j), cc)
	}
	// Full circuit: holding resistor to a 1.2 V rail; Thevenin source.
	ckt.AddVDC("vdd", "vdd", "0", 1.2)
	ckt.AddR("rhold", "vdd", name("v", 0), hold)
	ckt.AddV("vth", "th", "0", vth)
	ckt.AddR("rth", "th", name("a", 0), rth)

	probes = []string{name("v", 0), name("a", 0), name("v", nseg)}
	red, err := mor.Reduce(net, probes, mor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srcs = []PortSource{
		&HoldingPort{G: 1 / hold, V0: 1.2},
		&TheveninPort{W: vth, RTh: rth},
		OpenPort{},
	}
	return red, srcs, []float64{1.2, 1.2, 1.2}, ckt, probes
}

// The decisive correctness test: a fully linear cluster evaluated by the
// reduced-order engine must match the full transistor-free circuit solved
// by the general simulator.
func TestEngineMatchesFullLinearSimulation(t *testing.T) {
	red, srcs, v0, ckt, probes := coupledLines(t)
	opts := EngineOptions{Dt: 1e-12, TStop: 2e-9}
	engRes, err := RunEngine(context.Background(), red, srcs, v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.NewSession(sim.Compile(ckt), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var simRes sim.Result
	if err := sess.RunTransient(context.Background(), &simRes, 2e-9, nil); err != nil {
		t.Fatal(err)
	}
	for pi, node := range probes {
		d := wave.MaxAbsDiff(engRes.Waveform(pi), simRes.Waveform(node))
		if d > 0.015 {
			t.Errorf("port %s: engine deviates %v V from full simulation", node, d)
		}
	}
}

func TestEngineSourceCountMismatch(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	_, err := RunEngine(context.Background(), red, []PortSource{OpenPort{}}, []float64{0, 0}, EngineOptions{TStop: 1e-9})
	if err == nil {
		t.Error("source count mismatch accepted")
	}
}

func TestEngineRequiresTStop(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	_, err := RunEngine(context.Background(), red, []PortSource{OpenPort{}, OpenPort{}}, []float64{0, 0}, EngineOptions{})
	if err == nil {
		t.Error("missing TStop accepted")
	}
}

func TestHoldingPortRestores(t *testing.T) {
	p := &HoldingPort{G: 1e-3, V0: 1.2}
	i, g := p.Current(0, 1.0) // output drooped 0.2 V below quiet
	if math.Abs(i-0.2e-3) > 1e-12 {
		t.Errorf("restoring current = %v", i)
	}
	if g != -1e-3 {
		t.Errorf("conductance = %v", g)
	}
}

func TestOpenPort(t *testing.T) {
	i, g := OpenPort{}.Current(1e-9, 0.7)
	if i != 0 || g != 0 {
		t.Error("OpenPort leaks current")
	}
}

// referenceEngine is the dense formulation of RunEngine, kept as the oracle
// of the differential tests: every Newton iteration re-stamps and factors
// the full Q×Q Jacobian A1 − B·diag(∂i/∂v)·Bᵀ of
// F(x) = A1·x − A2·x_prev − B·i_prev − B·i(t, V0+Bᵀx). It runs every Miller
// capacitor in its companion form (companionForm) and every other source
// as given, on the same indexed time grid, and stops on the same
// max |Δx| < engineTol rule, so the two engines differ only by round-off.
func referenceEngine(red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	sources = companionForm(sources)
	p, q, h := len(red.Ports), red.Q, opts.Dt
	a1 := red.Cr.Clone()
	a1.Scale(2 / h)
	a1.AddScaled(1, red.Gr)
	a2 := red.Cr.Clone()
	a2.Scale(2 / h)
	a2.AddScaled(-1, red.Gr)

	x := make([]float64, q)
	iPrev := make([]float64, p)
	icur := make([]float64, p)
	didv := make([]float64, p)
	f := make([]float64, q)
	hist := make([]float64, q)
	dx := make([]float64, q)
	jac := linalg.NewMatrix(q, q)
	lu := linalg.NewLUWorkspace(q)

	n := int(math.Floor(opts.TStop/h + 0.5))
	res := &EngineResult{PortV: make([][]float64, p), Ports: red.Ports}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for k, v := range red.PortVoltages(x) {
			res.PortV[k] = append(res.PortV[k], v0[k]+v)
		}
	}
	for k, s := range sources {
		if d, ok := s.(DynamicPort); ok {
			d.Init(h, 0, v0[k])
		}
		iPrev[k], _ = s.Current(0, v0[k])
	}
	record(0)
	for step := 1; step <= n; step++ {
		t := float64(step) * h
		a2.MulVecInto(hist, x)
		for r := 0; r < q; r++ {
			for k := 0; k < p; k++ {
				hist[r] += red.B.At(r, k) * iPrev[k]
			}
		}
		converged := false
		for it := 0; it < opts.maxNewton; it++ {
			u := red.PortVoltages(x)
			for k, s := range sources {
				icur[k], didv[k] = s.Current(t, v0[k]+u[k])
			}
			a1.MulVecInto(f, x)
			jac.CopyFrom(a1)
			for r := 0; r < q; r++ {
				for k := 0; k < p; k++ {
					f[r] -= red.B.At(r, k) * icur[k]
				}
				f[r] -= hist[r]
				for cc := 0; cc < q; cc++ {
					for k := 0; k < p; k++ {
						jac.Add(r, cc, -red.B.At(r, k)*didv[k]*red.B.At(cc, k))
					}
				}
			}
			if err := lu.Factor(jac); err != nil {
				return nil, err
			}
			lu.SolveInto(dx, f)
			maxd := 0.0
			for r := range x {
				x[r] -= dx[r]
				maxd = math.Max(maxd, math.Abs(dx[r]))
			}
			if maxd < engineTol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("reference Newton did not converge at t=%.3gps", t*1e12)
		}
		u := red.PortVoltages(x)
		for k, s := range sources {
			iPrev[k], _ = s.Current(t, v0[k]+u[k])
			if d, ok := s.(DynamicPort); ok {
				d.Commit(t, v0[k]+u[k])
			}
		}
		record(t)
	}
	return res, nil
}

// engineVsReference runs RunEngine and referenceEngine on the same inputs
// and returns the largest port-voltage difference over every sample,
// failing the test on an error or a different time grid.
func engineVsReference(t *testing.T, red *mor.Reduced, srcs []PortSource, v0 []float64, opts EngineOptions) float64 {
	t.Helper()
	got, err := RunEngine(context.Background(), red, srcs, v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEngine(red, srcs, v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("samples = %d, reference %d", len(got.Times), len(want.Times))
	}
	maxd := 0.0
	for k := range want.Times {
		if got.Times[k] != want.Times[k] {
			t.Fatalf("Times[%d] = %v, reference %v", k, got.Times[k], want.Times[k])
		}
		for pi := range want.PortV {
			maxd = math.Max(maxd, math.Abs(got.PortV[pi][k]-want.PortV[pi][k]))
		}
	}
	return maxd
}

// engineDiffTol bounds |Δv| between the port-space engine and the dense
// reference: both run the same Newton iterates, so they differ by round-off
// only, far below the 1e-9 V Newton tolerance's effect on waveforms.
const engineDiffTol = 1e-8

func TestEngineMatchesReferenceOnRigs(t *testing.T) {
	ladder := reducedLadder(t, 8, 50, 10e-15)
	ladderSrcs := []PortSource{
		&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300},
		OpenPort{},
	}
	if d := engineVsReference(t, ladder, ladderSrcs, []float64{1.2, 1.2},
		EngineOptions{Dt: 1e-12, TStop: 3e-9}); d > engineDiffTol {
		t.Errorf("ladder: max |Δv| = %.3g V", d)
	} else {
		t.Logf("ladder: max |Δv| = %.3g V", d)
	}
	red, srcs, v0, _, _ := coupledLines(t)
	if d := engineVsReference(t, red, srcs, v0, EngineOptions{Dt: 1e-12, TStop: 2e-9}); d > engineDiffTol {
		t.Errorf("coupled lines: max |Δv| = %.3g V", d)
	} else {
		t.Logf("coupled lines: max |Δv| = %.3g V", d)
	}
}

// theveninLaw is the Thevenin port law of TheveninPort under a type
// RunEngine does not know, so the engine must keep it in Newton.
type theveninLaw struct {
	w   *wave.Waveform
	rTh float64
}

func (p theveninLaw) Current(t, v float64) (float64, float64) {
	return (p.w.At(t) - v) / p.rTh, -1 / p.rTh
}

// clusterModels builds the macromodels of a fastClusterOn rig on the
// load-curve grid the engine tests use.
func clusterModels(t *testing.T, tt *tech.Tech, nAgg int) (*Cluster, *Models) {
	t.Helper()
	c := fastClusterOn(t, tt, nAgg)
	models, err := c.BuildModels(context.Background(), ModelOptions{SkipProp: true, LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41}})
	if err != nil {
		t.Fatal(err)
	}
	return c, models
}

// clusterSources is the port source set of an evaluation: vic at the victim
// driving point, the aggressors' Thevenin (or held) sources, and open
// receiver ports.
func clusterSources(c *Cluster, models *Models, vic PortSource) []PortSource {
	return c.portSources(models, vic, c.switches)
}

// newtonPorts counts the ports RunEngine keeps in Newton.
func newtonPorts(srcs []PortSource) int {
	n := 0
	for _, s := range srcs {
		if !linearPort(s) {
			n++
		}
	}
	return n
}

// TestEngineMatchesReferenceOnClusters drives both engines with the port
// source sets every evaluation method builds (see methods.go) on real
// noise clusters: the non-linear VCCS victim alone and with its Miller
// capacitor (which the reference runs as a CapPort companion), the
// superposition holding conductance, the Zolotov pulsed source, and a set
// with the first aggressor held quiet. Two more sets keep the first
// aggressor's Thevenin law in Newton, once wrapped in a one-element
// ParallelPort and once as a type the engine does not know, so every
// Newton size from p_N = 0 to 2 is covered.
func TestEngineMatchesReferenceOnClusters(t *testing.T) {
	ctx := context.Background()
	worst := 0.0
	for _, tt := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, nAgg := range []int{1, 2} {
			c, models := clusterModels(t, tt, nAgg)
			opts := fastEvalOptions().normalize(c)
			drv, err := c.DriverAloneResponse(ctx, models, opts)
			if err != nil {
				t.Fatal(err)
			}
			vin := c.victimInputWave()
			rHold := 1 / models.HoldG
			wrapParallel := func(s PortSource) PortSource { return ParallelPort{s} }
			asLaw := func(s PortSource) PortSource {
				th := s.(*TheveninPort)
				return theveninLaw{w: th.W, rTh: th.RTh}
			}
			for _, set := range []struct {
				name string
				vic  PortSource
				agg  func(PortSource) PortSource // rewraps the first aggressor's source
				pn   int                         // ports kept in Newton
			}{
				{"macromodel", &VCCSPort{LC: models.LC, Vin: vin}, nil, 1},
				{"miller", &VCCSPort{LC: models.LC, Vin: vin, MillerC: models.MillerC}, nil, 1},
				{"superposition", &HoldingPort{G: models.HoldG, V0: models.QuietVic}, nil, 0},
				{"zolotov", &TheveninPort{W: pulseFromResponse(drv, vin, models.LC, rHold), RTh: rHold}, nil, 0},
				{"quiet", &VCCSPort{LC: models.LC, Vin: vin}, nil, 1},
				{"parallel-aggressor", &VCCSPort{LC: models.LC, Vin: vin}, wrapParallel, 2},
				{"custom-aggressor", &VCCSPort{LC: models.LC, Vin: vin}, asLaw, 2},
			} {
				c.Aggressors[0].Quiet = set.name == "quiet"
				srcs := clusterSources(c, models, set.vic)
				c.Aggressors[0].Quiet = false
				if set.agg != nil {
					ap := models.AggPorts[0]
					srcs[ap] = set.agg(srcs[ap])
				}
				if got := newtonPorts(srcs); got != set.pn {
					t.Fatalf("%s: %d ports in Newton, want %d", set.name, got, set.pn)
				}
				d := engineVsReference(t, models.Red, srcs, models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.tstop})
				label := fmt.Sprintf("%s/%dagg/%s (Q=%d, p=%d, p_N=%d)", tt.Name, nAgg, set.name, models.Red.Q, len(models.Red.Ports), set.pn)
				if d > engineDiffTol {
					t.Errorf("%s: max |Δv| = %.3g V", label, d)
				}
				t.Logf("%s: max |Δv| = %.3g V", label, d)
				worst = math.Max(worst, d)
			}
		}
	}
	t.Logf("worst max |Δv| over all cluster source sets = %.3g V", worst)
}

// A macromodel run that Newton cannot finish reports the same typed error
// a transistor-level run does.
func TestEngineNonConvergenceIsTyped(t *testing.T) {
	c, models := clusterModels(t, tech.Tech130(), 1)
	opts := fastEvalOptions().normalize(c)
	srcs := clusterSources(c, models, &VCCSPort{LC: models.LC, Vin: c.victimInputWave()})
	_, err := RunEngine(context.Background(), models.Red, srcs, models.V0,
		EngineOptions{Dt: opts.Dt, TStop: opts.tstop, maxNewton: 1})
	if !errors.Is(err, sim.ErrNoConvergence) {
		t.Fatalf("err = %v, want sim.ErrNoConvergence", err)
	}
	if !strings.HasPrefix(err.Error(), "core: macromodel Newton did not converge at t=") {
		t.Errorf("err = %q lost its prefix", err)
	}
}

// An all-linear run folds every port into the step matrix and takes no
// Newton iteration: at maxNewton = 1 it completes with exactly the default
// run's waveforms. The same run with one Thevenin law the engine does not
// know iterates, and one iteration cannot meet the stopping rule.
func TestEngineAllLinearRunTakesNoNewton(t *testing.T) {
	red, srcs, v0, _, _ := coupledLines(t)
	opts := EngineOptions{Dt: 1e-12, TStop: 2e-9, maxNewton: 1}
	one, err := RunEngine(context.Background(), red, srcs, v0, opts)
	if err != nil {
		t.Fatalf("all-linear run at maxNewton = 1: %v", err)
	}
	def, err := RunEngine(context.Background(), red, srcs, v0, EngineOptions{Dt: opts.Dt, TStop: opts.TStop})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range def.PortV {
		for k, v := range def.PortV[pi] {
			if one.PortV[pi][k] != v {
				t.Fatalf("port %d sample %d: %v at maxNewton = 1, %v by default", pi, k, one.PortV[pi][k], v)
			}
		}
	}
	th := srcs[1].(*TheveninPort)
	srcs[1] = theveninLaw{w: th.W, rTh: th.RTh}
	if _, err := RunEngine(context.Background(), red, srcs, v0, opts); !errors.Is(err, sim.ErrNoConvergence) {
		t.Errorf("run with a port in Newton at maxNewton = 1: err = %v, want sim.ErrNoConvergence", err)
	}
}

// The engine samples an indexed grid t = k·h, so every sample sits exactly
// on the grid and the sample count is exact at any TStop/Dt ratio.
func TestEngineTimeGridIndexed(t *testing.T) {
	red := reducedLadder(t, 4, 50, 10e-15)
	srcs := []PortSource{&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300}, OpenPort{}}
	const h = 1e-12
	for _, tc := range []struct {
		ratio float64
		n     int // steps after t = 0
	}{{2000, 2000}, {1000.4, 1000}, {1000.6, 1001}} {
		res, err := RunEngine(context.Background(), red, srcs, []float64{1.2, 1.2},
			EngineOptions{Dt: h, TStop: tc.ratio * h})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Times) != tc.n+1 || len(res.PortV[0]) != tc.n+1 {
			t.Errorf("TStop/h = %v: %d samples, want %d", tc.ratio, len(res.Times), tc.n+1)
		}
		for k, tm := range res.Times {
			if want := float64(k) * h; tm != want {
				t.Errorf("TStop/h = %v: Times[%d] = %v, want %v", tc.ratio, k, tm, want)
				break
			}
		}
	}
}

func TestEngineRejectsNonFiniteOptions(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	srcs := []PortSource{OpenPort{}, OpenPort{}}
	base := EngineOptions{Dt: 1e-12, TStop: 1e-9}
	for _, field := range []string{"Dt", "TStop"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opts := base
			switch field {
			case "Dt":
				opts.Dt = v
			case "TStop":
				opts.TStop = v
			}
			_, err := RunEngine(context.Background(), red, srcs, []float64{0, 0}, opts)
			var oe *sim.OptionsError
			if !errors.Is(err, sim.ErrInvalidOptions) || !errors.As(err, &oe) || oe.Field != field {
				t.Errorf("%s = %v: err = %v, want *sim.OptionsError on %s", field, v, err, field)
			}
		}
	}
}

// The step loop allocates nothing: a run four times longer allocates
// exactly as often (the result arrays are sized once up front). The near
// port is a VCCS in Newton with a Miller capacitor: an inverter-like table,
// 300 Ω to the rail its rising input selects.
func TestEngineAllocsIndependentOfSteps(t *testing.T) {
	red := reducedLadder(t, 8, 50, 10e-15)
	lc := &charlib.LoadCurve{VinMax: 1.2, VoutMax: 1.2, NVin: 2, NVout: 2, I: []float64{1.2 / 300, 0, 0, -1.2 / 300}}
	srcs := []PortSource{
		&VCCSPort{LC: lc, Vin: wave.SaturatedRamp(0, 1.2, 100e-12, 80e-12), MillerC: 2e-15},
		&HoldingPort{G: 1e-3, V0: 1.2},
	}
	allocs := func(tstop float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunEngine(context.Background(), red, srcs, []float64{1.2, 1.2},
				EngineOptions{Dt: 1e-12, TStop: tstop}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a4 := allocs(1e-9), allocs(4e-9); a1 != a4 {
		t.Errorf("allocations grow with the step count: %v at 1 ns, %v at 4 ns", a1, a4)
	}
}

// portLaw is a PortSource given by a function, one the engine keeps in
// Newton.
type portLaw func(t, v float64) (float64, float64)

func (f portLaw) Current(t, v float64) (float64, float64) { return f(t, v) }

// A non-finite Newton update never counts as converged: a victim law that
// turns NaN after 100 ps must end the run in the engine's non-convergence
// error, with the scalar Newton (p_N = 1) and with the p_N × p_N one, not
// return a NaN waveform that wave.MeasureNoise reads as no noise.
func TestEngineNaNUpdateIsNotConverged(t *testing.T) {
	c, models := clusterModels(t, tech.Tech130(), 1)
	opts := fastEvalOptions().normalize(c)
	vccs := &VCCSPort{LC: models.LC, Vin: c.victimInputWave()}
	poisoned := portLaw(func(t, v float64) (float64, float64) {
		i, didv := vccs.Current(t, v)
		if t > 100e-12 {
			i = math.NaN()
		}
		return i, didv
	})
	for _, pn := range []int{1, 2} {
		srcs := clusterSources(c, models, poisoned)
		if pn == 2 {
			th := srcs[models.AggPorts[0]].(*TheveninPort)
			srcs[models.AggPorts[0]] = theveninLaw{w: th.W, rTh: th.RTh}
		}
		if got := newtonPorts(srcs); got != pn {
			t.Fatalf("%d ports in Newton, want %d", got, pn)
		}
		res, err := RunEngine(context.Background(), models.Red, srcs, models.V0,
			EngineOptions{Dt: opts.Dt, TStop: opts.tstop})
		if !errors.Is(err, sim.ErrNoConvergence) || !strings.HasPrefix(err.Error(), "core: macromodel Newton did not converge at t=") {
			peak := math.NaN()
			if res != nil {
				peak = wave.MeasureNoise(res.Waveform(models.VicPort), models.QuietVic).Peak
			}
			t.Errorf("p_N = %d: err = %v (victim peak %v), want the non-convergence error", pn, err, peak)
		}
	}
}

// A step whose Newton Jacobian I − M·diag(∂i/∂v) is exactly zero reports
// the singular-Jacobian error wrapping linalg.ErrSingular, through the
// scalar pivot test (p_N = 1) as through the LU (p_N = 2). The model is
// p decoupled states with Cr = I, Gr = 4·I and B = I at h = 0.5 s, so
// A1 = 8·I, M = I/8 exactly, and a port law with ∂i/∂v = 8 zeroes every
// diagonal entry of the Jacobian.
func TestEngineSingularJacobian(t *testing.T) {
	law := portLaw(func(t, v float64) (float64, float64) { return 0, 8 })
	for _, p := range []int{1, 2} {
		red := &mor.Reduced{Gr: linalg.Identity(p), Cr: linalg.Identity(p), B: linalg.Identity(p), Q: p}
		red.Gr.Scale(4)
		srcs, v0 := make([]PortSource, p), make([]float64, p)
		for j := range srcs {
			red.Ports = append(red.Ports, fmt.Sprintf("p%d", j))
			srcs[j] = law
		}
		_, err := RunEngine(context.Background(), red, srcs, v0, EngineOptions{Dt: 0.5, TStop: 1})
		if !errors.Is(err, linalg.ErrSingular) || !strings.HasPrefix(err.Error(), "core: singular macromodel Jacobian at t=") {
			t.Errorf("p_N = %d: err = %v, want the singular-Jacobian error", p, err)
		}
	}
}

// A finite Dt so small that the run would record more than the sample cap
// is rejected before anything is allocated, with the typed *sim.GridError.
func TestEngineRejectsOversizedGrid(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	srcs := []PortSource{OpenPort{}, OpenPort{}}
	_, err := RunEngine(context.Background(), red, srcs, []float64{0, 0}, EngineOptions{Dt: 1e-19, TStop: 2e-9})
	var ge *sim.GridError
	if !errors.Is(err, sim.ErrInvalidOptions) || !errors.As(err, &ge) || ge.Dt != 1e-19 || ge.Signals != 3 {
		t.Fatalf("err = %v, want *sim.GridError on Dt = 1e-19 with 3 signals", err)
	}
	if !strings.Contains(err.Error(), "invalid option Dt") {
		t.Errorf("err = %q does not name the option", err)
	}
}

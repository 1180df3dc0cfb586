// Golden-reference regression tests: committed fixtures of the three
// characterised artefact families — load curves (eq. 1), propagation
// tables and Noise Rejection Curves — for INV and NAND2 on both technology
// cards, plus the full report schema of the pessimistic and feasibility
// flows, PropagateChain's stage hand-off and the paper runners' quick
// tables. Any numerical drift in the simulator, the device model or the
// characterisation sweeps shows up as a fixture mismatch in
// `go test -run Golden` instead of a silent change in example output.
//
// The fixtures are the program's exact bytes on amd64: regenerating them
// on a clean checkout with
//
//	go test -run Golden . -update
//
// must leave testdata/golden unchanged, and `make golden-check` (a CI step
// on the amd64 runner) fails on any diff. A change that moves a fixture
// regenerates with the same command and explains every file that moved.
//
// The characterisation comparisons below are tolerance-based on purpose:
// they are the cross-architecture check. DC/transient solves are Newton
// iterations whose last few bits legitimately vary across architectures
// (Go contracts a*b+c into FMA on arm64, not on amd64), and NRC heights
// come from a bisection whose branch decisions can flip within its own
// tolerance.
package stanoise_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stanoise"
	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/paper"
)

var (
	update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")
	// tolScale widens (or tightens) every numeric comparison tolerance of
	// the golden harness by a common factor. The default of 1 is the
	// committed contract; pass e.g. -tol 4 to triage whether a mismatch is
	// drift-sized (it disappears under a slightly wider tolerance) or
	// physics-sized (it survives any reasonable scale) without editing the
	// per-field tolerances.
	tolScale = flag.Float64("tol", 1, "scale factor on all golden comparison tolerances")
)

// Fixed characterisation grids, deliberately small: the fixtures guard
// numerics, not production table quality.
func goldenLCOpts() charlib.LoadCurveOptions {
	return charlib.LoadCurveOptions{NVin: 9, NVout: 9}
}

func goldenPropOpts(vdd float64) charlib.PropOptions {
	return charlib.PropOptions{
		Heights: []float64{0.4 * vdd, 0.9 * vdd},
		Widths:  []float64{200e-12, 500e-12},
		Loads:   []float64{25e-15},
		Dt:      2e-12,
	}
}

func goldenNRCOpts() nrc.Options {
	return nrc.Options{
		Widths: []float64{200e-12, 800e-12},
		Tol:    0.02,
		Dt:     2e-12,
	}
}

// goldenFixture is the committed JSON schema. NRC heights are pointers
// because an unfailable width is +Inf, which JSON cannot represent — null
// means +Inf, the same convention as the public report schema.
type goldenFixture struct {
	Tech  string `json:"tech"`
	Cell  string `json:"cell"`
	Pin   string `json:"pin"`
	State string `json:"state"`

	LoadCurve struct {
		VinMin  float64   `json:"vin_min"`
		VinMax  float64   `json:"vin_max"`
		VoutMin float64   `json:"vout_min"`
		VoutMax float64   `json:"vout_max"`
		NVin    int       `json:"nvin"`
		NVout   int       `json:"nvout"`
		I       []float64 `json:"i"`
	} `json:"load_curve"`

	PropTable struct {
		Heights  []float64 `json:"heights"`
		Widths   []float64 `json:"widths"`
		Loads    []float64 `json:"loads"`
		Peak     []float64 `json:"peak"` // flattened [h][w][l]
		Area     []float64 `json:"area"`
		OutSign  float64   `json:"out_sign"`
		QuietOut float64   `json:"quiet_out"`
	} `json:"prop_table"`

	NRC struct {
		FailFrac float64    `json:"fail_frac"`
		Widths   []float64  `json:"widths"`
		Heights  []*float64 `json:"heights"` // null = +Inf (unfailable)
	} `json:"nrc"`
}

func flatten3(tab [][][]float64) []float64 {
	var out []float64
	for _, byW := range tab {
		for _, byL := range byW {
			out = append(out, byL...)
		}
	}
	return out
}

func infToNull(hs []float64) []*float64 {
	out := make([]*float64, len(hs))
	for i, h := range hs {
		if !math.IsInf(h, 0) {
			v := h
			out[i] = &v
		}
	}
	return out
}

// goldenWork is one golden characterisation's solver work per artefact
// family, measured as process-wide counter deltas (sim.Snapshot). The
// deltas are exact because the root package's tests run serially.
type goldenWork struct {
	loadCurve, prop, nrc sim.Counters
}

// characterizeGolden runs all three characterisations for one (tech, cell,
// pin) configuration at the fixed golden grids.
func characterizeGolden(t *testing.T, tt *tech.Tech, kind, pin string) (*goldenFixture, goldenWork) {
	t.Helper()
	ctx := context.Background()
	c := cell.MustNew(tt, kind, 1)
	st, err := c.SensitizedState(pin, true)
	if err != nil {
		t.Fatal(err)
	}
	fx := &goldenFixture{Tech: tt.Name, Cell: c.Name(), Pin: pin, State: st.String()}
	var work goldenWork
	mark := sim.Snapshot()
	measure := func(into *sim.Counters) {
		now := sim.Snapshot()
		*into, mark = now.Sub(mark), now
	}

	var cache *charlib.Cache // nil: characterise afresh, memoizing nothing
	lc, err := cache.LoadCurve(ctx, c, st, pin, goldenLCOpts())
	if err != nil {
		t.Fatalf("load curve: %v", err)
	}
	measure(&work.loadCurve)
	fx.LoadCurve.VinMin, fx.LoadCurve.VinMax = lc.VinMin, lc.VinMax
	fx.LoadCurve.VoutMin, fx.LoadCurve.VoutMax = lc.VoutMin, lc.VoutMax
	fx.LoadCurve.NVin, fx.LoadCurve.NVout = lc.NVin, lc.NVout
	fx.LoadCurve.I = lc.I

	pt, err := cache.PropTable(ctx, c, st, pin, goldenPropOpts(tt.VDD))
	if err != nil {
		t.Fatalf("prop table: %v", err)
	}
	measure(&work.prop)
	fx.PropTable.Heights, fx.PropTable.Widths, fx.PropTable.Loads = pt.Heights, pt.Widths, pt.Loads
	fx.PropTable.Peak = flatten3(pt.Peak)
	fx.PropTable.Area = flatten3(pt.Area)
	fx.PropTable.OutSign, fx.PropTable.QuietOut = pt.OutSign, pt.QuietOut

	curve, _, err := nrc.Characterize(ctx, c, st, pin, goldenNRCOpts())
	if err != nil {
		t.Fatalf("nrc: %v", err)
	}
	measure(&work.nrc)
	fx.NRC.FailFrac = curve.FailFrac
	fx.NRC.Widths = curve.Widths
	fx.NRC.Heights = infToNull(curve.Heights)
	return fx, work
}

// compareSlice asserts element-wise closeness with a relative tolerance
// scaled by the slice's own magnitude plus an absolute floor — drift-sized
// differences pass, physics-sized differences fail loudly. Every tolerance
// is widened by the -tol flag's common scale factor.
func compareSlice(t *testing.T, what string, got, want []float64, rtol, atol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: length %d, fixture has %d", what, len(got), len(want))
		return
	}
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	tol := *tolScale * (rtol*scale + atol)
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Errorf("%s[%d] = %.9g, fixture %.9g (|Δ| %.3g > tol %.3g)", what, i, got[i], want[i], d, tol)
		}
	}
}

func goldenConfigs() []struct{ techName, cell, pin string } {
	return []struct{ techName, cell, pin string }{
		{"cmos130", "INV", "A"},
		{"cmos130", "NAND2", "B"},
		{"cmos090", "INV", "A"},
		{"cmos090", "NAND2", "B"},
	}
}

func goldenPath(techName, kind, pin, suffix string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s_%s%s.json", techName, kind, pin, suffix))
}

// goldenTarget resolves one configuration's card (constant-cap or the
// nonlinear gate-charge card) and fixture file. The nlcap axis gets its
// own fixture set (the *_nlcap.json files): the nonlinear model is
// physically different, so sharing any fixture would defeat both
// comparisons.
func goldenTarget(t *testing.T, techName, kind, pin string, nlcap bool) (*tech.Tech, string) {
	t.Helper()
	tt, err := tech.ByName(techName)
	if err != nil {
		t.Fatal(err)
	}
	suffix := ""
	if nlcap {
		tt = tt.WithNonlinearCaps()
		suffix = "_nlcap"
	}
	return tt, goldenPath(techName, kind, pin, suffix)
}

// runGoldenConfig characterises one configuration and compares it against
// — or, under -update, rewrites — its fixture file.
func runGoldenConfig(t *testing.T, techName, kind, pin string, nlcap bool) {
	t.Helper()
	tt, path := goldenTarget(t, techName, kind, pin, nlcap)
	got, _ := characterizeGolden(t, tt, kind, pin)

	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	compareGolden(t, got, path)
}

// compareGolden holds a characterisation to the fixture at path within
// the per-field tolerances.
func compareGolden(t *testing.T, got *goldenFixture, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with: go test -run Golden . -update): %v", path, err)
	}
	var want goldenFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("fixture %s: %v", path, err)
	}

	// Identity and exact-by-construction fields.
	if got.Cell != want.Cell || got.Pin != want.Pin || got.State != want.State {
		t.Errorf("configuration drifted: got %s/%s/%s, fixture %s/%s/%s",
			got.Cell, got.Pin, got.State, want.Cell, want.Pin, want.State)
	}
	if got.LoadCurve.NVin != want.LoadCurve.NVin || got.LoadCurve.NVout != want.LoadCurve.NVout {
		t.Fatalf("load-curve grid drifted: %dx%d, fixture %dx%d",
			got.LoadCurve.NVin, got.LoadCurve.NVout, want.LoadCurve.NVin, want.LoadCurve.NVout)
	}
	compareSlice(t, "load_curve.grid",
		[]float64{got.LoadCurve.VinMin, got.LoadCurve.VinMax, got.LoadCurve.VoutMin, got.LoadCurve.VoutMax},
		[]float64{want.LoadCurve.VinMin, want.LoadCurve.VinMax, want.LoadCurve.VoutMin, want.LoadCurve.VoutMax},
		0, 1e-12)

	// The numerics. DC currents converge to ~1e-12 A residuals on
	// ~1e-3 A scales; 1e-6 relative headroom covers architecture
	// noise with three orders of margin below real model changes.
	compareSlice(t, "load_curve.i", got.LoadCurve.I, want.LoadCurve.I, 1e-6, 1e-12)
	compareSlice(t, "prop_table.heights", got.PropTable.Heights, want.PropTable.Heights, 0, 1e-12)
	compareSlice(t, "prop_table.peak", got.PropTable.Peak, want.PropTable.Peak, 1e-5, 1e-9)
	compareSlice(t, "prop_table.area", got.PropTable.Area, want.PropTable.Area, 1e-5, 1e-15)
	if got.PropTable.OutSign != want.PropTable.OutSign {
		t.Errorf("prop_table.out_sign = %g, fixture %g", got.PropTable.OutSign, want.PropTable.OutSign)
	}
	compareSlice(t, "prop_table.quiet_out",
		[]float64{got.PropTable.QuietOut}, []float64{want.PropTable.QuietOut}, 0, 1e-12)

	// NRC heights come from a bisection with Tol = 20 mV: a branch
	// decision flipping under drift moves the result by at most one
	// bracket, so the comparison tolerance is 1.5x the bisection
	// tolerance.
	compareSlice(t, "nrc.widths", got.NRC.Widths, want.NRC.Widths, 0, 1e-15)
	if len(got.NRC.Heights) != len(want.NRC.Heights) {
		t.Fatalf("nrc.heights length %d, fixture %d", len(got.NRC.Heights), len(want.NRC.Heights))
	}
	nrcTol := 1.5 * goldenNRCOpts().Tol * *tolScale
	for i := range got.NRC.Heights {
		g, w := got.NRC.Heights[i], want.NRC.Heights[i]
		switch {
		case (g == nil) != (w == nil):
			t.Errorf("nrc.heights[%d]: failability flipped (got inf=%v, fixture inf=%v)", i, g == nil, w == nil)
		case g != nil && math.Abs(*g-*w) > nrcTol:
			t.Errorf("nrc.heights[%d] = %.4f, fixture %.4f (tol %.3f)", i, *g, *w, nrcTol)
		}
	}
}

func TestGoldenCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, false)
		})
	}
}

// TestGoldenWarmStartCharacterization holds every golden configuration to
// the one characterisation path's DC seeding: in each artefact family
// every DC solve after the sweep session's first is warm-started from the
// previous converged solution (sim.Session.Seed) — each load-curve
// grid point after the first, and each propagation and NRC probe's
// operating point after the first probe's — and the seeded artefacts match
// the fixtures. The tolerance comparison alone cannot tell a cold sweep
// from the seeded one, which writes different last bits.
func TestGoldenWarmStartCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			tt, path := goldenTarget(t, cfg.techName, cfg.cell, cfg.pin, false)
			got, work := characterizeGolden(t, tt, cfg.cell, cfg.pin)
			compareGolden(t, got, path)
			for _, f := range []struct {
				name string
				c    sim.Counters
			}{{"load curve", work.loadCurve}, {"prop table", work.prop}, {"nrc", work.nrc}} {
				if f.c.DC < 2 || f.c.WarmStarts != f.c.DC-1 {
					t.Errorf("%s: %d of %d DC solves warm-started, want all but the first", f.name, f.c.WarmStarts, f.c.DC)
				}
			}
		})
	}
}

// TestGoldenPredictorCharacterization holds every golden configuration to
// the one characterisation path's transient seeding: in the propagation
// table and the NRC, every timestep after a probe's first is seeded by the
// polynomial predictor (sim.Session.Seed) — except, in the
// propagation table, the first step after each of the three knots of a
// probe's triangular glitch, where the adaptive time axis restarts the
// predictor (sim.Session.RunTransientAdaptive) — the DC load curve runs no
// transient, and the seeded artefacts match the fixtures.
func TestGoldenPredictorCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			tt, path := goldenTarget(t, cfg.techName, cfg.cell, cfg.pin, false)
			got, work := characterizeGolden(t, tt, cfg.cell, cfg.pin)
			compareGolden(t, got, path)
			if lc := work.loadCurve; lc.Transient != 0 || lc.PredictorSeeds != 0 {
				t.Errorf("load curve ran %d transients with %d predictor seeds, want a DC-only sweep", lc.Transient, lc.PredictorSeeds)
			}
			for _, f := range []struct {
				name     string
				c        sim.Counters
				restarts int64 // breakpoint restarts per probe
			}{{"prop table", work.prop, 3}, {"nrc", work.nrc, 0}} {
				if want := f.c.TransientSteps - f.c.Transient - f.restarts*f.c.Transient; f.c.Transient == 0 || f.c.PredictorSeeds != want {
					t.Errorf("%s: %d of %d timesteps over %d transients predictor-seeded, want %d (all but each probe's first and the %d after its breakpoints)",
						f.name, f.c.PredictorSeeds, f.c.TransientSteps, f.c.Transient, want, f.restarts)
				}
			}
		})
	}
}

// TestGoldenFeasibility pins the feasibility filter's full report schema
// on both technology cards: a generated windowed design (switching
// windows, mutex pairs, implication pairs) is analysed serially in
// feasibility mode and the timing-cleared reports — census, governing
// scenario, realistic margins and all — must match the committed fixture
// byte for byte. Analysis at a fixed grid is deterministic and its
// reported figures are rounded far above solver noise, so this comparison
// is exact, unlike the tolerance-based characterisation fixtures above;
// regenerate after an intentional change with the same -update flag.
func TestGoldenFeasibility(t *testing.T) {
	runGoldenDesign(t, "golden-feas", "_feas.json", goldenDesignOpts(true))
}

// TestGoldenPessimistic pins the classic pessimistic flow, snacheck's
// default: every net's aggressors are peak-aligned and then refined by the
// worst-case coordinate search (core.AlignWorstCase), whose probes are the
// bulk of the macromodel engine's runs. The feasibility fixtures stop at
// the peak alignment, so only these reports cover the search; they are
// exact bytes like the feasibility ones.
func TestGoldenPessimistic(t *testing.T) {
	runGoldenDesign(t, "golden-pessimistic", "_pessimistic.json", goldenDesignOpts(false))
}

// TestGoldenMethod pins the transistor-level reference itself: the same
// aligned 6-cluster analysis run with Method: Golden, on the constant-cap
// card and on the NLMOS nonlinear gate-charge card. Only these reports
// cover the cluster-sized transient step loop of the reference simulator
// (each cluster's golden run takes the factored loop, DESIGN.md §17), so a
// change to that loop that moves a bit of a golden peak, width or area
// fails here. Exact bytes on amd64, like the other design-level fixtures.
func TestGoldenMethod(t *testing.T) {
	for _, card := range []struct {
		name, suffix string
		nl           bool
	}{{"const", "_goldenmethod.json", false}, {"nlcap", "_goldenmethod_nlcap.json", true}} {
		t.Run(card.name, func(t *testing.T) {
			opts := goldenDesignOpts(false)
			opts.Method = stanoise.Golden
			opts.NonlinearCaps = card.nl
			runGoldenDesign(t, "golden-method", card.suffix, opts)
		})
	}
}

// goldenDesignOpts is the analysis the design-level fixtures pin: the
// macromodel method, aligned, serial, at fixed grids.
func goldenDesignOpts(feasibility bool) stanoise.Options {
	return stanoise.Options{
		Method:      stanoise.Macromodel,
		Dt:          2e-12,
		Align:       true,
		Feasibility: feasibility,
		Workers:     1,
		LoadCurve:   stanoise.LoadCurveOptions{NVin: 31, NVout: 31},
		Prop: stanoise.PropOptions{
			Heights: []float64{0.3, 0.6, 0.9, 1.2},
			Widths:  []float64{150e-12, 400e-12, 800e-12},
			Loads:   []float64{30e-15, 80e-15, 160e-15},
			Dt:      2e-12,
		},
		NRC: stanoise.NRCOptions{Widths: []float64{100e-12, 300e-12, 900e-12}, Dt: 2e-12},
	}
}

// runGoldenDesign analyses a generated 6-cluster design serially on both
// technology cards under opts and compares the timing-cleared reports with
// testdata/golden/<tech><suffix> byte for byte.
func runGoldenDesign(t *testing.T, name, suffix string, opts stanoise.Options) {
	for _, techName := range []string{"cmos130", "cmos090"} {
		techName := techName
		t.Run(techName, func(t *testing.T) {
			d := stanoise.GenerateDesign(name, 6)
			d.Tech = techName
			reports, err := stanoise.NewAnalyzer(d, opts).Analyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := range reports {
				reports[i].ClearTiming()
			}
			checkGoldenJSON(t, filepath.Join("testdata", "golden", techName+suffix), reports)
		})
	}
}

// TestGoldenChain pins PropagateChain's stage hand-off on the sample
// design, whose two clusters run as a two-stage chain: bus_bit7's receiver
// noise becomes ctrl_en's input glitch. The pessimistic chain carries the
// worst-case alignment's noise forward; the feasibility chain carries the
// governing realistic scenario's (the largest receiver peak). Every
// stage's receiver metrics must match testdata/golden/sample_chain_<mode>.json
// byte for byte.
func TestGoldenChain(t *testing.T) {
	for _, mode := range []struct {
		name        string
		feasibility bool
	}{{"pessimistic", false}, {"feas", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			d := stanoise.SampleDesign()
			an := stanoise.NewAnalyzer(d, goldenDesignOpts(mode.feasibility))
			metrics, err := an.PropagateChain(context.Background(), d.Clusters)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenJSON(t, filepath.Join("testdata", "golden", "sample_chain_"+mode.name+".json"), metrics)
		})
	}
}

// TestGoldenPaperQuick pins the paper runners at quick quality: Table 1,
// Table 2, the Zolotov context and the whole cluster sweep. These evaluate
// single clusters through core.Cluster with no rig pool attached, the path
// every design-level fixture above skips (the Analyzer shares pools), so
// only this fixture covers the benches such clusters compile for
// themselves. Every row's wall-clock Elapsed is zeroed; the speed-up
// experiment is left out because its labels carry a wall-clock ratio.
// Exact bytes on amd64, like the other design-level fixtures.
func TestGoldenPaperQuick(t *testing.T) {
	ctx := context.Background()
	var exps []*paper.Experiment
	for _, run := range []func(context.Context, paper.Quality) (*paper.Experiment, error){
		paper.RunTable1,
		paper.RunTable2,
		paper.RunZolotovContext,
		func(ctx context.Context, q paper.Quality) (*paper.Experiment, error) {
			return paper.RunSweep(ctx, q, 0)
		},
	} {
		exp, err := run(ctx, paper.Quick)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exp.Rows {
			exp.Rows[i].Elapsed = 0
		}
		exps = append(exps, exp)
	}
	checkGoldenJSON(t, filepath.Join("testdata", "golden", "paper_quick.json"), exps)
}

// checkGoldenJSON compares v's indented JSON with the fixture at path byte
// for byte, or rewrites the fixture under -update.
func checkGoldenJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with: go test -run Golden . -update): %v", path, err)
	}
	if string(raw) != string(want) {
		t.Errorf("output drifted from %s:\ngot:\n%s\nfixture:\n%s", path, raw, want)
	}
}

// TestGoldenNLCapCharacterization characterises every golden configuration
// on the NLMOS nonlinear gate-charge card (tech.Tech.WithNonlinearCaps)
// against its own fixture set, the *_nlcap.json files. These fixtures are
// regenerated by the same -update flow as the constant-cap set; the nl
// axis only changes the card handed to the characteriser — the
// byte-identity of constant-cap *analysis output* is asserted by the CI
// nlcap job on snacheck's deterministic JSON instead.
func TestGoldenNLCapCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, true)
		})
	}
}

// TestGoldenNLCapFixturesDiffer compares the committed nlcap fixtures
// against their constant-cap twins: the nonlinear gate-charge model must
// change the characterised propagation peaks measurably (a fixture pair
// that agrees to solver noise would mean the nl stamps never ran), while
// the state-independent identity fields stay equal.
func TestGoldenNLCapFixturesDiffer(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			var base, nl goldenFixture
			for _, f := range []struct {
				suffix string
				into   *goldenFixture
			}{{"", &base}, {"_nlcap", &nl}} {
				path := goldenPath(cfg.techName, cfg.cell, cfg.pin, f.suffix)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture %s (generate with: go test -run Golden . -update): %v", path, err)
				}
				if err := json.Unmarshal(raw, f.into); err != nil {
					t.Fatalf("fixture %s: %v", path, err)
				}
			}
			if base.Cell != nl.Cell || base.Pin != nl.Pin || base.State != nl.State {
				t.Fatalf("nlcap fixture characterises a different configuration: %s/%s/%s vs %s/%s/%s",
					nl.Cell, nl.Pin, nl.State, base.Cell, base.Pin, base.State)
			}
			if len(nl.PropTable.Peak) != len(base.PropTable.Peak) {
				t.Fatalf("prop peak grids differ: %d vs %d", len(nl.PropTable.Peak), len(base.PropTable.Peak))
			}
			maxDiff := 0.0
			for i := range nl.PropTable.Peak {
				maxDiff = math.Max(maxDiff, math.Abs(nl.PropTable.Peak[i]-base.PropTable.Peak[i]))
			}
			// 1 mV floor: far above solver noise (~µV), far below VDD.
			if maxDiff < 1e-3 {
				t.Errorf("nlcap propagation peaks within %.3g V of constant-cap — nonlinear stamps invisible", maxDiff)
			}
		})
	}
}

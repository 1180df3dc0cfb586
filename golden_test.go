// Golden-reference regression tests: committed fixtures of the three
// characterised artefact families — load curves (eq. 1), propagation
// tables and Noise Rejection Curves — for INV and NAND2 on both technology
// cards. Any numerical drift in the simulator, the device model or the
// characterisation sweeps shows up as a fixture mismatch in `go test -run
// Golden` instead of a silent change in example output.
//
// Comparisons are tolerance-based, not bit-exact: DC/transient solves are
// Newton iterations whose last few bits legitimately vary across
// architectures (FMA contraction), and NRC heights come from a bisection
// whose branch decisions can flip within its own tolerance. After an
// *intentional* model change, regenerate with:
//
//	go test -run Golden . -update
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
// numerics, not production table quality. The warm parameter selects the
// Newton continuation mode, which has its own fixture set (see
// TestGoldenWarmStartCharacterization); pred selects the polynomial
// transient predictor, which shares the cold fixtures (see
// TestGoldenPredictorCharacterization).
func goldenLCOpts(warm bool) charlib.LoadCurveOptions {
	return charlib.LoadCurveOptions{NVin: 9, NVout: 9, Policy: sim.Policy{WarmStart: warm}}
}

func goldenPropOpts(vdd float64, warm, pred bool) charlib.PropOptions {
	return charlib.PropOptions{
		Heights: []float64{0.4 * vdd, 0.9 * vdd},
		Widths:  []float64{200e-12, 500e-12},
		Loads:   []float64{25e-15},
		Dt:      2e-12,
		Policy:  sim.Policy{WarmStart: warm, Predictor: pred},
	}
}

func goldenNRCOpts(warm, pred bool) nrc.Options {
	return nrc.Options{
		Widths: []float64{200e-12, 800e-12},
		Tol:    0.02,
		Dt:     2e-12,
		Policy: sim.Policy{WarmStart: warm, Predictor: pred},
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

// characterizeGolden runs all three characterisations for one (tech, cell,
// pin) configuration at the fixed golden grids, cold, warm-started and/or
// predictor-seeded.
func characterizeGolden(t *testing.T, tt *tech.Tech, kind, pin string, warm, pred bool) *goldenFixture {
	t.Helper()
	ctx := context.Background()
	c := cell.MustNew(tt, kind, 1)
	st, err := c.SensitizedState(pin, true)
	if err != nil {
		t.Fatal(err)
	}
	fx := &goldenFixture{Tech: tt.Name, Cell: c.Name(), Pin: pin, State: st.String()}

	lc, err := charlib.CharacterizeLoadCurve(ctx, c, st, pin, goldenLCOpts(warm))
	if err != nil {
		t.Fatalf("load curve: %v", err)
	}
	fx.LoadCurve.VinMin, fx.LoadCurve.VinMax = lc.VinMin, lc.VinMax
	fx.LoadCurve.VoutMin, fx.LoadCurve.VoutMax = lc.VoutMin, lc.VoutMax
	fx.LoadCurve.NVin, fx.LoadCurve.NVout = lc.NVin, lc.NVout
	fx.LoadCurve.I = lc.I

	pt, err := charlib.CharacterizePropagation(ctx, c, st, pin, goldenPropOpts(tt.VDD, warm, pred))
	if err != nil {
		t.Fatalf("prop table: %v", err)
	}
	fx.PropTable.Heights, fx.PropTable.Widths, fx.PropTable.Loads = pt.Heights, pt.Widths, pt.Loads
	fx.PropTable.Peak = flatten3(pt.Peak)
	fx.PropTable.Area = flatten3(pt.Area)
	fx.PropTable.OutSign, fx.PropTable.QuietOut = pt.OutSign, pt.QuietOut

	curve, err := nrc.Characterize(ctx, c, st, pin, goldenNRCOpts(warm, pred))
	if err != nil {
		t.Fatalf("nrc: %v", err)
	}
	fx.NRC.FailFrac = curve.FailFrac
	fx.NRC.Widths = curve.Widths
	fx.NRC.Heights = infToNull(curve.Heights)
	return fx
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

// runGoldenConfig characterises one configuration (cold, warm,
// predictor-seeded or on the nonlinear gate-charge card) and compares it
// against — or, under -update, rewrites — its fixture file. Predictor mode
// shares the cold fixture set (differences are solver-tolerance-sized, well
// inside the golden comparison tolerances), so it never rewrites fixtures.
// The nlcap axis gets its own fixture set (the *_nlcap.json files): the
// nonlinear model is physically different, so sharing any fixture would
// defeat both comparisons.
func runGoldenConfig(t *testing.T, techName, kind, pin string, warm, pred, nlcap bool) {
	t.Helper()
	tt, err := tech.ByName(techName)
	if err != nil {
		t.Fatal(err)
	}
	suffix := ""
	if warm {
		suffix = "_warm"
	}
	if nlcap {
		tt = tt.WithNonlinearCaps()
		suffix += "_nlcap"
	}
	got := characterizeGolden(t, tt, kind, pin, warm, pred)
	path := goldenPath(techName, kind, pin, suffix)

	if *update {
		if pred {
			t.Skip("predictor mode is compared against the cold fixtures; nothing to update")
		}
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
	nrcTol := 1.5 * goldenNRCOpts(warm, pred).Tol * *tolScale
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
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, false, false, false)
		})
	}
}

// TestGoldenFeasibility pins the feasibility filter's full report schema
// on both technology cards: a generated windowed design (switching
// windows, mutex pairs, implication pairs) is analysed serially in
// feasibility mode and the timing-cleared reports — census, governing
// scenario, realistic margins and all — must match the committed fixture
// byte for byte. Cold analysis at a fixed grid is deterministic, so this
// comparison is exact, unlike the tolerance-based characterisation
// fixtures above; regenerate after an intentional change with the same
// -update flag.
func TestGoldenFeasibility(t *testing.T) {
	for _, techName := range []string{"cmos130", "cmos090"} {
		techName := techName
		t.Run(techName, func(t *testing.T) {
			d := stanoise.GenerateDesign("golden-feas", 6)
			d.Tech = techName
			opts := stanoise.Options{
				Method:      stanoise.Macromodel,
				Dt:          2e-12,
				Align:       true,
				Feasibility: true,
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
			reports, err := stanoise.NewAnalyzer(d, opts).Analyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := range reports {
				reports[i].ClearTiming()
			}
			raw, err := json.MarshalIndent(reports, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')

			path := filepath.Join("testdata", "golden", techName+"_feas.json")
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
				t.Errorf("feasibility reports drifted from %s:\ngot:\n%s\nfixture:\n%s", path, raw, want)
			}
		})
	}
}

// TestGoldenWarmStartCharacterization is the warm-start twin of
// TestGoldenCharacterization, guarding the Newton-continuation sweep mode
// against numerical drift with its own fixture set (the *_warm.json files):
// warm-started results legitimately differ from the cold flow in the last
// bits, so they can never share the bit-exactly-regenerated cold fixtures.
// Agreement *between* the warm and cold flows is asserted separately (and
// more tightly) by the charlib/nrc property tests.
func TestGoldenWarmStartCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, true, false, false)
		})
	}
}

// TestGoldenPredictorCharacterization holds the polynomial transient
// predictor (sim.Session.Predictor) to the *cold* fixture set: every
// predictor-seeded Newton solve converges to the same tolerance as the cold
// flow, so the characterised tables must agree with the committed cold
// fixtures within the ordinary golden comparison tolerances — no separate
// predictor fixtures exist. A predictor bug that changes the physics (a
// seed accepted without convergence, a fallback that corrupts state) fails
// these comparisons loudly, while legitimate last-bit differences pass.
func TestGoldenPredictorCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, false, true, false)
		})
	}
}

// TestGoldenNLCapCharacterization characterises every golden configuration
// on the NLMOS nonlinear gate-charge card (tech.Tech.WithNonlinearCaps)
// against its own fixture set, the *_nlcap.json files. These fixtures are
// regenerated by the same -update flow as the cold set; the nl axis only
// changes the card handed to the characteriser, so pre-existing fixtures
// stay within the ordinary (architecture-noise-sized) golden tolerances —
// the byte-identity of constant-cap *analysis output* is asserted by the
// CI nlcap job on snacheck's deterministic JSON instead.
func TestGoldenNLCapCharacterization(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.techName+"/"+cfg.cell, func(t *testing.T) {
			runGoldenConfig(t, cfg.techName, cfg.cell, cfg.pin, false, false, true)
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
			var cold, nl goldenFixture
			for _, f := range []struct {
				suffix string
				into   *goldenFixture
			}{{"", &cold}, {"_nlcap", &nl}} {
				path := goldenPath(cfg.techName, cfg.cell, cfg.pin, f.suffix)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture %s (generate with: go test -run Golden . -update): %v", path, err)
				}
				if err := json.Unmarshal(raw, f.into); err != nil {
					t.Fatalf("fixture %s: %v", path, err)
				}
			}
			if cold.Cell != nl.Cell || cold.Pin != nl.Pin || cold.State != nl.State {
				t.Fatalf("nlcap fixture characterises a different configuration: %s/%s/%s vs %s/%s/%s",
					nl.Cell, nl.Pin, nl.State, cold.Cell, cold.Pin, cold.State)
			}
			if len(nl.PropTable.Peak) != len(cold.PropTable.Peak) {
				t.Fatalf("prop peak grids differ: %d vs %d", len(nl.PropTable.Peak), len(cold.PropTable.Peak))
			}
			maxDiff := 0.0
			for i := range nl.PropTable.Peak {
				maxDiff = math.Max(maxDiff, math.Abs(nl.PropTable.Peak[i]-cold.PropTable.Peak[i]))
			}
			// 1 mV floor: far above solver noise (~µV), far below VDD.
			if maxDiff < 1e-3 {
				t.Errorf("nlcap propagation peaks within %.3g V of constant-cap — nonlinear stamps invisible", maxDiff)
			}
		})
	}
}

package sna

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
)

// sampleDesign builds a small two-cluster design used across the tests.
func sampleDesign() *Design {
	return &Design{
		Name:     "demo",
		Tech:     "cmos130",
		Layer:    "M4",
		Segments: 8,
		Clusters: []ClusterSpec{
			{
				Name: "hot", // aggressive cluster expected to be noisy
				Victim: VictimSpec{
					Cell: "NAND2", Drive: 1, NoisyPin: "B",
					GlitchHeightV: 0.7, GlitchWidthPs: 400,
					LengthUm: 500,
				},
				Aggressors: []AggressorSpec{
					{Cell: "INV", Drive: 4, FromState: map[string]bool{"A": false},
						SwitchPin: "A", LengthUm: 500, Side: "right"},
					{Cell: "INV", Drive: 4, FromState: map[string]bool{"A": false},
						SwitchPin: "A", LengthUm: 500, Side: "left"},
				},
			},
			{
				Name: "mild", // short, single weak aggressor, no glitch
				Victim: VictimSpec{
					Cell: "INV", Drive: 2, NoisyPin: "A",
					LengthUm: 150,
				},
				Aggressors: []AggressorSpec{
					{Cell: "INV", Drive: 1, FromState: map[string]bool{"A": false},
						SwitchPin: "A", LengthUm: 150, SpacingFactor: 2},
				},
			},
		},
	}
}

func fastOpts(method core.Method) Options {
	return Options{
		Method:    method,
		Dt:        2e-12,
		Align:     true,
		LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41},
		Prop: charlib.PropOptions{
			Heights: []float64{0.3, 0.6, 0.9, 1.2},
			Widths:  []float64{150e-12, 400e-12, 800e-12},
			Loads:   []float64{30e-15, 80e-15, 160e-15},
			Dt:      2e-12,
		},
		NRC: nrc.Options{Widths: []float64{100e-12, 300e-12, 900e-12}, Dt: 2e-12},
	}
}

func TestParseDesignRoundTrip(t *testing.T) {
	d := sampleDesign()
	var b strings.Builder
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDesign(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name || len(d2.Clusters) != len(d.Clusters) {
		t.Errorf("round trip lost data: %+v", d2)
	}
	if d2.Clusters[0].Aggressors[1].Side != "left" {
		t.Errorf("aggressor side lost")
	}
}

func TestParseDesignRejectsUnknownFields(t *testing.T) {
	_, err := ParseDesign(strings.NewReader(`{"name":"x","tech":"cmos130","layer":"M4","clusters":[{"name":"c","victim":{"cell":"INV","noisy_pin":"A","length_um":100},"bogus":1}]}`))
	if err == nil {
		t.Error("unknown field accepted")
	}
}

func TestDesignValidate(t *testing.T) {
	d := sampleDesign()
	d.Tech = "cmos65"
	if err := d.Validate(); err == nil {
		t.Error("unknown tech accepted")
	}
	d = sampleDesign()
	d.Clusters[0].Aggressors[0].Side = "above"
	if err := d.Validate(); err == nil {
		t.Error("bad side accepted")
	}
	d = sampleDesign()
	d.Clusters = nil
	if err := d.Validate(); err != nil {
		t.Errorf("empty design rejected: %v (an empty shard must be analysable)", err)
	}
}

func TestBuildClusterGeometry(t *testing.T) {
	d := sampleDesign()
	cl, err := d.BuildCluster(d.Clusters[0])
	if err != nil {
		t.Fatal(err)
	}
	// One left aggressor, victim in the middle, one right aggressor.
	if len(cl.Bus.Lines) != 3 {
		t.Fatalf("lines = %d", len(cl.Bus.Lines))
	}
	if cl.Victim.Line != 1 {
		t.Errorf("victim line = %d, want 1 (centre)", cl.Victim.Line)
	}
	// The victim state defaults to the sensitised state A=1, B=0.
	if !cl.Victim.State["A"] || cl.Victim.State["B"] {
		t.Errorf("victim state = %v", cl.Victim.State)
	}
	// Default receiver: INV_X2 pin A.
	if cl.Victim.Receiver == nil || cl.Victim.Receiver.Name() != "INV_X2" {
		t.Errorf("victim receiver = %v", cl.Victim.Receiver)
	}
}

func TestAnalyzeFlagsHotCluster(t *testing.T) {
	d := sampleDesign()
	an := NewAnalyzer(d, fastOpts(core.Macromodel))
	reports, err := an.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	hot, mild := reports[0], reports[1]
	if hot.Cluster != "hot" || mild.Cluster != "mild" {
		t.Fatalf("report order: %v %v", hot.Cluster, mild.Cluster)
	}
	// The hot cluster must carry far more noise than the mild one.
	if hot.PeakV <= mild.PeakV {
		t.Errorf("hot peak %v <= mild peak %v", hot.PeakV, mild.PeakV)
	}
	// The mild cluster must pass its NRC with margin.
	if mild.Fails {
		t.Error("mild cluster flagged as failing")
	}
	if !math.IsInf(float64(mild.MarginV), 1) && mild.MarginV < 0.1 {
		t.Errorf("mild margin %v V suspiciously small", mild.MarginV)
	}
	// The hot cluster was constructed to be dangerous: two strong in-phase
	// aggressors plus a large propagated glitch.
	if !hot.Fails && hot.MarginV > 0.25 {
		t.Errorf("hot cluster implausibly safe: margin %v V", hot.MarginV)
	}
}

// The paper's motivating failure mode: superposition-based SNA passes a
// cluster that the accurate non-linear analysis flags as (close to)
// failing. At minimum the superposition noise estimate must be
// significantly lower.
func TestSuperpositionUnderestimatesInFlow(t *testing.T) {
	d := sampleDesign()
	d.Clusters = d.Clusters[:1]
	mac, err := NewAnalyzer(d, fastOpts(core.Macromodel)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewAnalyzer(d, fastOpts(core.Superposition)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sup[0].DPPeakV >= mac[0].DPPeakV {
		t.Errorf("superposition DP peak %v >= macromodel %v", sup[0].DPPeakV, mac[0].DPPeakV)
	}
	under := 100 * (mac[0].DPPeakV - sup[0].DPPeakV) / mac[0].DPPeakV
	if under < 8 {
		t.Errorf("superposition underestimates by only %.1f%%", under)
	}
}

func TestNRCCacheSharedAcrossClusters(t *testing.T) {
	d := sampleDesign()
	an := NewAnalyzer(d, fastOpts(core.Macromodel))
	if _, err := an.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Both clusters use INV_X2/A receivers at quiet-high: one curve.
	nrcEntries := 0
	for _, k := range an.cache.Keys() {
		if strings.HasPrefix(k, "nrc|") {
			nrcEntries++
		}
	}
	if nrcEntries != 1 {
		t.Errorf("nrc cache entries = %d, want 1 (shared)", nrcEntries)
	}
	if s := an.CacheStats(); s.Hits == 0 {
		t.Errorf("no cache hits across clusters sharing a receiver: %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	reports := []NetReport{
		{Cluster: "a", Fails: false, MarginV: 0.4},
		{Cluster: "b", Fails: true, MarginV: -0.1},
		{Cluster: "c", Fails: false, MarginV: Margin(math.Inf(1))},
	}
	s := Summarize(reports)
	if s.Total != 3 || s.Failing != 1 {
		t.Errorf("summary %+v", s)
	}
	if s.WorstCluster != "b" || s.WorstMarginV != -0.1 {
		t.Errorf("worst: %s %v", s.WorstCluster, s.WorstMarginV)
	}
}

// A NaN or infinite engine step is rejected by every run before any cluster
// work, as a *sim.OptionsError: it used to reach the macromodel engine,
// which panicked sizing its result (NaN) or never left its step loop (+Inf).
func TestAnalyzeRejectsNonFiniteDt(t *testing.T) {
	ctx := context.Background()
	d := sampleDesign()
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := fastOpts(core.Macromodel)
		opts.Dt = dt
		an := NewAnalyzer(d, opts)
		if _, err := an.Analyze(ctx); !errors.Is(err, sim.ErrInvalidOptions) {
			t.Errorf("Dt = %v: Analyze err = %v, want ErrInvalidOptions", dt, err)
		}
		for _, err := range an.Stream(ctx) {
			if !errors.Is(err, sim.ErrInvalidOptions) {
				t.Errorf("Dt = %v: Stream err = %v, want ErrInvalidOptions", dt, err)
			}
		}
		if _, err := an.PropagateChain(ctx, d.Clusters[:1]); !errors.Is(err, sim.ErrInvalidOptions) {
			t.Errorf("Dt = %v: PropagateChain err = %v, want ErrInvalidOptions", dt, err)
		}
		if cs := an.CacheStats(); cs.Misses != 0 {
			t.Errorf("Dt = %v: characterised %d artefacts before rejecting", dt, cs.Misses)
		}
	}
}

// The NRC failure threshold has one home, Options.NRC.FailFrac: the curve
// the analyzer judges a receiver against is characterised at the threshold
// the caller asked for, and a lower threshold fails at lower glitch heights.
func TestReceiverNRCHonoursFailFrac(t *testing.T) {
	ctx := context.Background()
	d := sampleDesign()
	curve := func(failFrac float64) *nrc.Curve {
		t.Helper()
		opts := fastOpts(core.Macromodel)
		opts.NRC.FailFrac = failFrac
		c, err := NewAnalyzer(d, opts).ReceiverNRC(ctx, d.Clusters[1])
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	def, low := curve(0), curve(0.3)
	if def.FailFrac != 0.5 || low.FailFrac != 0.3 {
		t.Fatalf("curve FailFrac = %g by default and %g at 0.3, want 0.5 and 0.3", def.FailFrac, low.FailFrac)
	}
	lower := false
	for i, h := range low.Heights {
		if h > def.Heights[i] {
			t.Errorf("width %g: fails at %g V at 0.3·VDD, above %g V at 0.5·VDD", low.Widths[i], h, def.Heights[i])
		}
		lower = lower || h < def.Heights[i]
	}
	if !lower {
		t.Errorf("heights %v at 0.3·VDD equal the default curve's: the threshold never reached the probes", low.Heights)
	}
}

// A step longer than twice a cluster's event horizon leaves its runs no
// step (sim.GridSteps), and one longer than a tenth of a cluster's
// shortest input edge under-reads its noise (core's step rule): every
// cluster of the sample design, whose aggressors all switch in 60 ps,
// fails with the typed invalid-option error at 5 ns, 1 ns and 7 ps, under
// the macromodel and golden alike. Each used to pass: at 0 V, and at 1 ns
// bus_bit7 at 0.247 V against 0.937 V at 2 ps. At 5 ps, inside the limit,
// the sample still analyses.
func TestAnalyzeRejectsStepPastHorizon(t *testing.T) {
	ctx := context.Background()
	d := SampleDesign()
	for _, m := range []core.Method{core.Macromodel, core.Golden} {
		for _, tc := range []struct {
			dt     float64
			failed []string
		}{
			{5e-9, []string{"bus_bit7", "ctrl_en"}},
			{1e-9, []string{"bus_bit7", "ctrl_en"}},
			{7e-12, []string{"bus_bit7", "ctrl_en"}},
			{5e-12, nil},
		} {
			opts := fastOpts(m)
			opts.Dt, opts.Align, opts.OnError = tc.dt, false, ContinueOnError
			var failed []string
			n := 0
			for rep, err := range NewAnalyzer(d, opts).Stream(ctx) {
				n++
				switch {
				case err == nil:
				case errors.Is(err, sim.ErrInvalidOptions) && strings.Contains(err.Error(), "invalid option"):
					var ce *ClusterError
					if !errors.As(err, &ce) {
						t.Fatalf("%v at Dt %g: %v is not a ClusterError", m, tc.dt, err)
					}
					failed = append(failed, ce.Cluster)
				default:
					t.Errorf("%v at Dt %g: cluster %q: peak %v V, err = %v; want a report or the invalid-option error", m, tc.dt, rep.Cluster, rep.PeakV, err)
				}
			}
			slices.Sort(failed)
			if n != len(d.Clusters) || !slices.Equal(failed, tc.failed) {
				t.Errorf("%v at Dt %g: %d outcomes, clusters %v failed; want %d, %v", m, tc.dt, n, failed, len(d.Clusters), tc.failed)
			}
		}
	}
}

package sna

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"stanoise/internal/core"
	"stanoise/internal/sim"
)

// constrainedDesign builds a one-cluster design with the given tech and
// victim cell, carrying the full spread of correlation metadata: named
// aggressors with switching windows, a mutex pair and an implication.
func constrainedDesign(tech, victim, noisyPin string) *Design {
	return &Design{
		Name:     "feas-" + tech + "-" + victim,
		Tech:     tech,
		Layer:    "M4",
		Segments: 8,
		Clusters: []ClusterSpec{{
			Name: "net0",
			Victim: VictimSpec{
				Cell: victim, Drive: 1, NoisyPin: noisyPin,
				GlitchHeightV: 0.5, GlitchWidthPs: 300,
				LengthUm: 400,
			},
			Aggressors: []AggressorSpec{
				{Cell: "INV", Drive: 4, FromState: map[string]bool{"A": false},
					SwitchPin: "A", LengthUm: 400, Side: "left",
					Name: "a", Window: &WindowSpec{EarlyPs: 100, LatePs: 350}},
				{Cell: "INV", Drive: 4, FromState: map[string]bool{"A": false},
					SwitchPin: "A", LengthUm: 400, Side: "right",
					Name: "b", Window: &WindowSpec{EarlyPs: 200, LatePs: 500}},
				{Cell: "INV", Drive: 2, FromState: map[string]bool{"A": false},
					SwitchPin: "A", LengthUm: 300, Side: "right", SpacingFactor: 2,
					Name: "c", Window: &WindowSpec{EarlyPs: 150, LatePs: 450}},
			},
			MutexGroups:  [][]string{{"a", "b"}},
			Implications: []ImplicationSpec{{If: "c", Then: "b"}},
		}},
	}
}

// TestRealisticNeverBelowWorstCase is the subsystem's soundness property
// on real evaluations: for every victim cell and technology, the
// bounded-realistic margin of a constrained cluster must be at least the
// classic worst-case margin — pruning scenarios can only help, never make
// a net look worse.
func TestRealisticNeverBelowWorstCase(t *testing.T) {
	cases := []struct{ tech, victim, pin string }{
		{"cmos130", "INV", "A"},
		{"cmos130", "NAND2", "B"},
		{"cmos090", "INV", "A"},
		{"cmos090", "NAND2", "B"},
	}
	for _, tc := range cases {
		t.Run(tc.tech+"/"+tc.victim, func(t *testing.T) {
			d := constrainedDesign(tc.tech, tc.victim, tc.pin)
			opts := fastOpts(core.Macromodel)
			opts.Feasibility = true
			reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				f := r.Feasibility
				if f == nil {
					t.Fatalf("cluster %s: no feasibility report in feasibility mode", r.Cluster)
				}
				if f.RealisticMarginV < r.MarginV {
					t.Errorf("cluster %s: realistic margin %v V below classic %v V",
						r.Cluster, f.RealisticMarginV, r.MarginV)
				}
				if f.RealisticFails && !r.Fails {
					t.Errorf("cluster %s: realistic failure without a classic one", r.Cluster)
				}
				// a|b mutex plus c→b kills {a,c}, {a,b,...} supersets: with
				// 3 aggressors the census must show real pruning.
				if f.Combos != 7 || f.Pruned == 0 {
					t.Errorf("cluster %s: census combos=%d pruned=%d, want 7 and > 0",
						r.Cluster, f.Combos, f.Pruned)
				}
				if f.Scenarios == 0 || len(f.Scenario) == 0 {
					t.Errorf("cluster %s: no governing scenario (%d scenarios)", r.Cluster, f.Scenarios)
				}
			}
		})
	}
}

// TestUnwindowedScenarioStartsAtZero covers a scenario whose windowed
// member pulls the common peak target early: a fast aggressor that may
// switch only in [0, 20] ps beside a slow, unwindowed one with a long
// peak delay. Re-aligned with no floor, the slow ramp would start before
// t = 0, which core rejects; the re-alignment starts it at 0 instead, so
// the cluster gets its report instead of failing its feasibility stage.
func TestUnwindowedScenarioStartsAtZero(t *testing.T) {
	inv := func(name string, drive int, slewPs, lengthUm float64, side string, w *WindowSpec) AggressorSpec {
		return AggressorSpec{Name: name, Cell: "INV", Drive: drive, FromState: map[string]bool{"A": false},
			SwitchPin: "A", SlewPs: slewPs, LengthUm: lengthUm, Side: side, Window: w}
	}
	d := &Design{
		Name: "skew", Tech: "cmos130", Layer: "M4", Segments: 10,
		Clusters: []ClusterSpec{{
			Name: "skew0",
			Victim: VictimSpec{Cell: "NAND2", Drive: 1, NoisyPin: "B",
				GlitchHeightV: 0.5, GlitchWidthPs: 300, LengthUm: 1500},
			Aggressors: []AggressorSpec{
				inv("fast", 4, 40, 100, "left", &WindowSpec{EarlyPs: 0, LatePs: 20}),
				inv("slow", 1, 200, 1500, "right", nil),
			},
		}},
	}
	opts := fastOpts(core.Macromodel)
	opts.Feasibility = true
	reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Feasibility == nil {
		t.Fatalf("want one report with a feasibility census, got %+v", reports)
	}
	r := reports[0]
	f := r.Feasibility
	if got := strings.Join(f.Scenario, ","); got != "fast,slow" {
		t.Errorf("governing scenario %q, want fast,slow", got)
	}
	if f.RealisticMarginV < r.MarginV {
		t.Errorf("realistic margin %v V below classic %v V", f.RealisticMarginV, r.MarginV)
	}
	if f.RealisticFails && !r.Fails {
		t.Error("realistic failure without a classic one")
	}
}

// TestFeasibilityAcceptance is the PR's acceptance gate on a generated
// 32-cluster windowed design: feasibility mode must (a) report a
// realistic margin at least the classic one on every cluster, (b) prune a
// non-zero number of combinations overall, and (c) spend strictly fewer
// reduced-order engine runs than the pessimistic analysis of the same
// design — the filter pays for itself in solves, not just in verdicts.
func TestFeasibilityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("32-cluster analysis is too slow for -short")
	}
	d := GenerateDesign("accept", 32)

	run := func(feasibility bool) ([]NetReport, sim.Counters) {
		t.Helper()
		opts := fastOpts(core.Macromodel)
		opts.Feasibility = feasibility
		before := sim.Snapshot()
		reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports, sim.Snapshot().Sub(before)
	}

	feasible, feasCost := run(true)
	pessimistic, pessCost := run(false)

	if len(feasible) != len(d.Clusters) || len(pessimistic) != len(d.Clusters) {
		t.Fatalf("reports: %d feasible, %d pessimistic, want %d",
			len(feasible), len(pessimistic), len(d.Clusters))
	}
	var pruned int64
	for i, r := range feasible {
		f := r.Feasibility
		if f == nil {
			t.Fatalf("cluster %s: no feasibility report", r.Cluster)
		}
		if f.RealisticMarginV < r.MarginV {
			t.Errorf("cluster %s: realistic margin %v V below classic %v V",
				r.Cluster, f.RealisticMarginV, r.MarginV)
		}
		if f.RealisticMarginV < pessimistic[i].MarginV {
			t.Errorf("cluster %s: realistic margin %v V below the pessimistic run's %v V",
				r.Cluster, f.RealisticMarginV, pessimistic[i].MarginV)
		}
		pruned += f.Pruned
	}
	if pruned == 0 {
		t.Error("generated windowed design pruned zero combinations")
	}
	if feasCost.EngineRuns >= pessCost.EngineRuns {
		t.Errorf("feasibility mode ran %d engine solves, pessimistic %d; want strictly fewer",
			feasCost.EngineRuns, pessCost.EngineRuns)
	}
}

// TestFeasibilityOffOmitsNewFields pins the byte-stability contract of
// the legacy mode: with Options.Feasibility off, reports of a design that
// carries correlation metadata marshal without any of the new JSON keys,
// so pre-existing consumers see exactly the schema they always did.
func TestFeasibilityOffOmitsNewFields(t *testing.T) {
	d := GenerateDesign("legacy", 4)
	reports, err := NewAnalyzer(d, fastOpts(core.Macromodel)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"feasibility"`, `"feas_ns"`, `"realistic_margin_v"`} {
		if strings.Contains(string(b), key) {
			t.Errorf("feasibility off, but reports contain %s:\n%s", key, b)
		}
	}
	for _, r := range reports {
		if r.Feasibility != nil {
			t.Errorf("cluster %s: feasibility report attached with the mode off", r.Cluster)
		}
	}
}

// TestFeasibilityParallelMatchesSerial extends the concurrency contract
// to feasibility mode: a parallel run must produce byte-identical reports
// (feasibility census, governing scenario and realistic margins included)
// to a serial run of the same design.
func TestFeasibilityParallelMatchesSerial(t *testing.T) {
	d := GenerateDesign("feaspar", 6)

	serialOpts := fastOpts(core.Macromodel)
	serialOpts.Feasibility = true
	serialOpts.Workers = 1
	serial, err := NewAnalyzer(d, serialOpts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	parOpts := fastOpts(core.Macromodel)
	parOpts.Feasibility = true
	parOpts.Workers = 8
	par, err := NewAnalyzer(d, parOpts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sb, pb := marshalReports(t, serial), marshalReports(t, par)
	if string(sb) != string(pb) {
		t.Errorf("parallel feasibility reports differ from serial:\nserial:   %s\nparallel: %s", sb, pb)
	}
}

// TestFeasReportJSONRoundTrip pins the wire mapping of the realistic
// margin: +Inf marshals as null and unmarshals back to +Inf, finite
// values survive exactly.
func TestFeasReportJSONRoundTrip(t *testing.T) {
	in := NetReport{Cluster: "x", Feasibility: &FeasReport{
		Combos: 7, Feasible: 4, Pruned: 3, Scenarios: 2,
		Scenario: []string{"a", "c"}, RealisticMarginV: Margin(math.Inf(1)),
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"realistic_margin_v":null`) {
		t.Errorf("+Inf realistic margin not serialised as null: %s", b)
	}
	const wantJSON = `{"cluster":"x","method":"golden","peak_v":0,"area_vps":0,"width_ps":0,"dp_peak_v":0,` +
		`"fails":false,"margin_v":0,"elapsed_ns":0,` +
		`"timing":{"build_ns":0,"models_ns":0,"align_ns":0,"eval_ns":0,"nrc_ns":0},` +
		`"feasibility":{"combos":7,"feasible":4,"pruned":3,"scenarios":2,"scenario":["a","c"],` +
		`"realistic_peak_v":0,"realistic_width_ps":0,"realistic_dp_peak_v":0,` +
		`"realistic_fails":false,"realistic_margin_v":null}}`
	if string(b) != wantJSON {
		t.Errorf("JSON bytes moved:\ngot:  %s\nwant: %s", b, wantJSON)
	}
	var out NetReport
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Feasibility == nil || !math.IsInf(float64(out.Feasibility.RealisticMarginV), 1) {
		t.Errorf("round trip lost the +Inf margin: %+v", out.Feasibility)
	}
	if out.Feasibility.Pruned != 3 || len(out.Feasibility.Scenario) != 2 {
		t.Errorf("round trip lost census fields: %+v", out.Feasibility)
	}
}

// badConstraintJSON renders a minimal one-cluster design whose aggressor
// block is the given JSON fragment, for constraint-rejection tests.
func badConstraintJSON(aggressors, extra string) string {
	return fmt.Sprintf(`{"name":"x","tech":"cmos130","layer":"M4","clusters":[
		{"name":"c0","victim":{"cell":"INV","noisy_pin":"A","length_um":100},
		 "aggressors":[%s]%s}]}`, aggressors, extra)
}

// TestParseDesignRejectsBadConstraints holds design validation to the
// typed-rejection contract: malformed or self-contradictory correlation
// metadata fails ParseDesign with a diagnostic naming the offender — it
// must never survive to analysis (or panic a server).
func TestParseDesignRejectsBadConstraints(t *testing.T) {
	agg := func(name, window string) string {
		s := `{"cell":"INV","from_state":{"A":false},"switch_pin":"A","length_um":100`
		if name != "" {
			s += `,"agg_name":"` + name + `"`
		}
		if window != "" {
			s += `,"window":` + window
		}
		return s + `}`
	}
	cases := []struct {
		name string
		doc  string
		want string // substring of the expected diagnostic
	}{
		{"unknown mutex ref",
			badConstraintJSON(agg("a", ""), `,"mutex_groups":[["a","ghost"]]`),
			"unknown aggressor"},
		{"unknown implication ref",
			badConstraintJSON(agg("a", ""), `,"implications":[{"if":"a","then":"ghost"}]`),
			"unknown aggressor"},
		{"duplicate names",
			badConstraintJSON(agg("a", "")+","+agg("a", ""), ``),
			"share the name"},
		{"inverted window",
			badConstraintJSON(agg("a", `{"early_ps":500,"late_ps":100}`), ``),
			"bad window"},
		{"negative window",
			badConstraintJSON(agg("a", `{"early_ps":-50,"late_ps":100}`), ``),
			"bad window"},
		{"dead aggressor",
			// a→b with disjoint windows: any scenario containing a needs b,
			// but their windows can never overlap, so a can never switch.
			badConstraintJSON(
				agg("a", `{"early_ps":100,"late_ps":200}`)+","+agg("b", `{"early_ps":400,"late_ps":500}`),
				`,"implications":[{"if":"a","then":"b"}]`),
			"can never switch"},
		{"empty system",
			// Mutual implication across disjoint windows leaves no feasible
			// combination at all.
			badConstraintJSON(
				agg("a", `{"early_ps":100,"late_ps":200}`)+","+agg("b", `{"early_ps":400,"late_ps":500}`),
				`,"implications":[{"if":"a","then":"b"},{"if":"b","then":"a"}]`),
			"no feasible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDesign(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("bad constraint metadata accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLegacyClustersSkipFeasibilityValidation pins backwards
// compatibility: a cluster with no correlation metadata is never run
// through the constraint validator, so legacy designs of any shape keep
// parsing exactly as before the feasibility subsystem existed.
func TestLegacyClustersSkipFeasibilityValidation(t *testing.T) {
	d := sampleDesign()
	for _, cs := range d.Clusters {
		if cs.hasFeasMeta() {
			t.Fatalf("cluster %s unexpectedly carries correlation metadata", cs.Name)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("legacy design rejected: %v", err)
	}
}

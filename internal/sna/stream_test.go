package sna

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stanoise/internal/core"
)

// settleGoroutines waits for the goroutine count to come back down to the
// pre-test level, failing the test if pool workers leaked.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamMatchesAnalyze: a Stream consumed to completion yields exactly
// the reports of an equivalent Analyze run (in completion rather than
// design order).
func TestStreamMatchesAnalyze(t *testing.T) {
	d := GenerateDesign("stream", 5)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 4

	batch, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var streamed []NetReport
	for rep, err := range NewAnalyzer(d, opts).Stream(context.Background()) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		streamed = append(streamed, rep)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream yielded %d reports, Analyze %d", len(streamed), len(batch))
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i].Cluster < streamed[j].Cluster })
	sorted := append([]NetReport(nil), batch...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cluster < sorted[j].Cluster })
	sb, bb := marshalReports(t, streamed), marshalReports(t, sorted)
	if string(sb) != string(bb) {
		t.Errorf("stream reports differ from Analyze:\nstream:  %s\nanalyze: %s", sb, bb)
	}
}

// TestStreamEarlyBreak: breaking out of the range loop cancels and drains
// the worker pool without leaking goroutines.
func TestStreamEarlyBreak(t *testing.T) {
	before := runtime.NumGoroutine()
	d := GenerateDesign("brk", 8)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 4

	seen := 0
	for _, err := range NewAnalyzer(d, opts).Stream(context.Background()) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		seen++
		if seen == 2 {
			break
		}
	}
	if seen != 2 {
		t.Fatalf("consumed %d reports, want 2", seen)
	}
	settleGoroutines(t, before)
}

// cancelAtGate is a Gate whose at-th Acquire cancels the run: a cancel at
// a fixed point of the run, however fast the clusters go.
type cancelAtGate struct {
	at     int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (g *cancelAtGate) Acquire(ctx context.Context) error {
	if g.calls.Add(1) == g.at {
		g.cancel()
	}
	return ctx.Err()
}

func (g *cancelAtGate) Release() {}

// TestAnalyzeCancelPrompt: cancelling mid-run returns promptly with the
// context error — through the characterisation loops and transient engines,
// not just between clusters — and leaks no goroutines. The cancel comes
// from the fifth gate Acquire, which one of the four workers makes only
// after its first cluster: at most four clusters are admitted by then, so
// at least eight of the twelve are never analysed and the run must end in
// the cancel, however fast the clusters go.
func TestAnalyzeCancelPrompt(t *testing.T) {
	before := runtime.NumGoroutine()
	d := GenerateDesign("cancel", 12)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 4
	// A fresh private cache: cancellation must interrupt characterisation.
	opts.Cache = nil

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Gate = &cancelAtGate{at: 5, cancel: cancel}
	start := time.Now()
	reports, err := NewAnalyzer(d, opts).Analyze(ctx)
	returned := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze after cancel: reports=%d err=%v, want context.Canceled", len(reports), err)
	}
	if reports != nil {
		t.Errorf("cancelled Analyze returned %d reports, want nil", len(reports))
	}
	// Generous bound: the ctx checks sit inside the DC sweeps and
	// transient loops, so the pool must wind down in well under the many
	// seconds a 12-cluster run takes.
	if returned > 5*time.Second {
		t.Errorf("Analyze took %v to honour cancellation", returned)
	}
	settleGoroutines(t, before)
}

// TestStreamCancelYieldsContextError: a cancelled Stream terminates with a
// final (zero report, ctx error) pair.
func TestStreamCancelYieldsContextError(t *testing.T) {
	before := runtime.NumGoroutine()
	d := GenerateDesign("scancel", 10)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 2

	ctx, cancel := context.WithCancel(context.Background())
	var last error
	n := 0
	for _, err := range NewAnalyzer(d, opts).Stream(ctx) {
		last = err
		if err == nil {
			n++
			cancel() // cancel as soon as the first report lands
		}
	}
	if !errors.Is(last, context.Canceled) {
		t.Errorf("final stream error = %v, want context.Canceled", last)
	}
	if n == len(d.Clusters) {
		t.Errorf("stream completed all %d clusters despite cancellation", n)
	}
	settleGoroutines(t, before)
	cancel()
}

// TestContinueOnErrorCollectsEveryFailure: with ContinueOnError a design
// with several broken clusters still analyses every good one, and the
// joined error names each failing cluster exactly once.
func TestContinueOnErrorCollectsEveryFailure(t *testing.T) {
	d := GenerateDesign("multi-err", 6)
	d.Clusters[1].Victim.Cell = "XOR9" // unknown cell: StageBuild failure
	d.Clusters[4].Victim.Cell = "XOR9"

	opts := fastOpts(core.Macromodel)
	opts.Workers = 3
	opts.OnError = ContinueOnError
	reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err == nil {
		t.Fatal("continue-on-error swallowed the failures")
	}
	if len(reports) != 4 {
		t.Errorf("got %d reports, want 4 successful clusters", len(reports))
	}
	counts := map[string]int{}
	for _, e := range flattenClusterErrors(err) {
		counts[e.Cluster]++
		if e.Stage != StageBuild {
			t.Errorf("cluster %s failed in stage %q, want %q", e.Cluster, e.Stage, StageBuild)
		}
	}
	if counts["net001"] != 1 || counts["net004"] != 1 || len(counts) != 2 {
		t.Errorf("failure counts = %v, want net001 and net004 exactly once", counts)
	}
	// errors.As must reach a *ClusterError through the join.
	var cerr *ClusterError
	if !errors.As(err, &cerr) {
		t.Error("errors.As failed to extract *ClusterError from the joined error")
	}
}

// flattenClusterErrors walks an errors.Join tree collecting *ClusterError.
func flattenClusterErrors(err error) []*ClusterError {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var out []*ClusterError
		for _, e := range joined.Unwrap() {
			out = append(out, flattenClusterErrors(e)...)
		}
		return out
	}
	var cerr *ClusterError
	if errors.As(err, &cerr) {
		return []*ClusterError{cerr}
	}
	return nil
}

// TestFailFastTypedError: the default policy surfaces the earliest failing
// cluster as a typed *ClusterError with the failing stage.
func TestFailFastTypedError(t *testing.T) {
	d := GenerateDesign("ff", 6)
	d.Clusters[2].Victim.Cell = "XOR9"
	d.Clusters[5].Victim.Cell = "XOR9"

	opts := fastOpts(core.Macromodel)
	opts.Workers = 4
	_, err := NewAnalyzer(d, opts).Analyze(context.Background())
	var cerr *ClusterError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %v is not a *ClusterError", err)
	}
	if cerr.Cluster != "net002" {
		t.Errorf("failing cluster = %q, want the earliest (net002)", cerr.Cluster)
	}
	if cerr.Stage != StageBuild {
		t.Errorf("failing stage = %q, want %q", cerr.Stage, StageBuild)
	}
	if !strings.Contains(err.Error(), "net002") || !strings.Contains(err.Error(), "build") {
		t.Errorf("error text %q does not name cluster and stage", err)
	}
}

// TestStreamContinueOnErrorYieldsFailures: failures arrive interleaved in
// completion order, each exactly once, alongside every good report.
func TestStreamContinueOnErrorYieldsFailures(t *testing.T) {
	d := GenerateDesign("serr", 5)
	d.Clusters[0].Victim.Cell = "XOR9"
	d.Clusters[3].Victim.Cell = "XOR9"

	opts := fastOpts(core.Macromodel)
	opts.Workers = 2
	opts.OnError = ContinueOnError
	good, bad := 0, map[string]int{}
	for rep, err := range NewAnalyzer(d, opts).Stream(context.Background()) {
		if err != nil {
			var cerr *ClusterError
			if !errors.As(err, &cerr) {
				t.Fatalf("stream error %v is not a *ClusterError", err)
			}
			if rep.Cluster != cerr.Cluster {
				t.Errorf("error yield report names %q, error names %q", rep.Cluster, cerr.Cluster)
			}
			bad[cerr.Cluster]++
			continue
		}
		good++
	}
	if good != 3 {
		t.Errorf("streamed %d good reports, want 3", good)
	}
	if bad["net000"] != 1 || bad["net003"] != 1 || len(bad) != 2 {
		t.Errorf("streamed failures = %v, want net000 and net003 exactly once", bad)
	}
}

// TestEmptyDesignAnalyze: an empty design is valid, analyses to zero
// reports, and its summary renders the guarded message instead of +Inf.
func TestEmptyDesignAnalyze(t *testing.T) {
	d := &Design{Name: "empty", Tech: "cmos130", Layer: "M4"}
	if err := d.Validate(); err != nil {
		t.Fatalf("empty design invalid: %v", err)
	}
	reports, err := NewAnalyzer(d, fastOpts(core.Macromodel)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("reports = %d", len(reports))
	}
	s := Summarize(reports)
	if got := s.String(); got != "no nets analysed" {
		t.Errorf("empty summary = %q", got)
	}
	if !math.IsInf(float64(s.WorstMarginV), 1) || s.WorstCluster != "" {
		t.Errorf("empty summary fields: %+v", s)
	}
	// The JSON schema must survive the +Inf margin (null on the wire).
	b, jerr := json.Marshal(s)
	if jerr != nil {
		t.Fatalf("summary with +Inf margin does not marshal: %v", jerr)
	}
	if !strings.Contains(string(b), `"worst_margin_v":null`) {
		t.Errorf("empty summary JSON = %s, want null margin", b)
	}
	if want := `{"total":0,"failing":0,"worst_margin_v":null}`; string(b) != want {
		t.Errorf("empty summary JSON = %s, want exactly %s", b, want)
	}
}

// TestNetReportJSONRoundTrip: the stable schema round-trips, including the
// unfailable +Inf margin as null.
func TestNetReportJSONRoundTrip(t *testing.T) {
	in := NetReport{
		Cluster: "x", Method: core.Macromodel,
		PeakV: 0.25, AreaVps: 40, WidthPs: 300, DPPeakV: 0.31,
		Fails: false, MarginV: Margin(math.Inf(1)),
		Elapsed: 12 * time.Millisecond,
		Timing:  StageTiming{Build: time.Millisecond, Eval: 2 * time.Millisecond},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cluster":"x"`, `"method":"macromodel"`, `"margin_v":null`, `"build_ns":1000000`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON %s missing %s", b, want)
		}
	}
	const wantJSON = `{"cluster":"x","method":"macromodel","peak_v":0.25,"area_vps":40,"width_ps":300,"dp_peak_v":0.31,` +
		`"fails":false,"margin_v":null,"elapsed_ns":12000000,` +
		`"timing":{"build_ns":1000000,"models_ns":0,"align_ns":0,"eval_ns":2000000,"nrc_ns":0}}`
	if string(b) != wantJSON {
		t.Errorf("JSON bytes moved:\ngot:  %s\nwant: %s", b, wantJSON)
	}
	var out NetReport
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the report:\nin:  %+v\nout: %+v", in, out)
	}

	in.MarginV = -0.07
	in.Fails = true
	b, err = json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.MarginV != -0.07 || !out.Fails {
		t.Errorf("finite margin lost in round trip: %+v", out)
	}

	if err := json.Unmarshal([]byte(`{"cluster":"x","margin_v":"x"}`), &out); err == nil {
		t.Errorf("a string margin decoded without error: %+v", out)
	}
}

// TestSerialPolicyAndCancel covers the Workers=1 reference path: policy
// handling and cancellation must behave exactly like the pool.
func TestSerialPolicyAndCancel(t *testing.T) {
	d := GenerateDesign("ser", 4)
	d.Clusters[1].Victim.Cell = "XOR9"
	d.Clusters[2].Victim.Cell = "XOR9"

	opts := fastOpts(core.Macromodel)
	opts.Workers = 1
	opts.OnError = ContinueOnError
	reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if len(reports) != 2 || len(flattenClusterErrors(err)) != 2 {
		t.Errorf("serial continue-on-error: %d reports, errors %v", len(reports), err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewAnalyzer(d, opts).Analyze(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("serial cancelled Analyze error = %v", err)
	}
}

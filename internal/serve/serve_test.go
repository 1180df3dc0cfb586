package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/nrc"
	"stanoise/internal/sna"
)

// fastAnalysis returns the reduced-quality characterisation grids the sna
// tests use, so server tests measure protocol behaviour rather than
// production-grid sweep time. Method/align/dt are per-request concerns.
func fastAnalysis() sna.Options {
	return sna.Options{
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

// directOpts is the exact option set a server request with defaults plus
// deterministic mode resolves to, for direct-vs-served comparisons.
func directOpts() sna.Options {
	o := fastAnalysis()
	o.Method = core.Macromodel
	o.Align = true
	o.Dt = 2e-12
	return o
}

// requestBody marshals an analyze request around the design.
func requestBody(t *testing.T, d *sna.Design, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{"design": d}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawRecord is the decoded form of one streamed NDJSON record.
type rawRecord struct {
	Type    string          `json:"type"`
	Report  json.RawMessage `json:"report"`
	Error   json.RawMessage `json:"error"`
	Summary json.RawMessage `json:"summary"`
	Errors  int             `json:"errors"`
}

// readRecords decodes an NDJSON stream.
func readRecords(t *testing.T, r io.Reader) []rawRecord {
	t.Helper()
	var out []rawRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec rawRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// postAnalyze posts the body and returns the parsed record stream.
func postAnalyze(t *testing.T, client *http.Client, url string, body []byte) []rawRecord {
	t.Helper()
	resp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/analyze: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	return readRecords(t, resp.Body)
}

// reportsByCluster indexes the compacted report payloads of a stream.
func reportsByCluster(t *testing.T, recs []rawRecord) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, rec := range recs {
		if rec.Type != "report" {
			continue
		}
		var rep sna.NetReport
		if err := json.Unmarshal(rec.Report, &rep); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, rec.Report); err != nil {
			t.Fatal(err)
		}
		out[rep.Cluster] = buf.String()
	}
	return out
}

// directReports runs the analysis the server is expected to mirror and
// returns each report's canonical (timing-cleared, compact) JSON by
// cluster name.
func directReports(t *testing.T, d *sna.Design) map[string]string {
	t.Helper()
	reports, err := sna.NewAnalyzer(d, directOpts()).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for i := range reports {
		reports[i].ClearTiming()
		b, err := json.Marshal(reports[i])
		if err != nil {
			t.Fatal(err)
		}
		out[reports[i].Cluster] = string(b)
	}
	return out
}

// TestServedVerdictsMatchDirectAnalyze is the wire-fidelity contract: the
// report records a deterministic server request streams are byte-identical
// (per cluster, compacted) to a direct Analyze call's marshalled reports,
// and the terminal summary matches Summarize.
func TestServedVerdictsMatchDirectAnalyze(t *testing.T) {
	d := sna.SampleDesign()
	want := directReports(t, d)

	ts := httptest.NewServer(NewServer(Config{Analysis: fastAnalysis()}))
	defer ts.Close()
	recs := postAnalyze(t, ts.Client(), ts.URL, requestBody(t, d, map[string]any{"deterministic": true}))

	got := reportsByCluster(t, recs)
	if len(got) != len(want) {
		t.Fatalf("served %d reports, want %d", len(got), len(want))
	}
	for cl, w := range want {
		if got[cl] != w {
			t.Errorf("cluster %s:\nserved %s\ndirect %s", cl, got[cl], w)
		}
	}
	last := recs[len(recs)-1]
	if last.Type != "summary" {
		t.Fatalf("terminal record type %q, want summary", last.Type)
	}
	var sum sna.Summary
	if err := json.Unmarshal(last.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Total != len(want) || sum.Failing < 0 {
		t.Errorf("summary %+v inconsistent with %d reports", sum, len(want))
	}
}

// TestConcurrentClientsGetIdenticalVerdicts hammers one server with
// concurrent clients (run under -race in CI): every client must receive
// exactly the direct-analysis verdicts, byte for byte, regardless of
// interleaving across the shared cache, rig pools and fleet gate.
func TestConcurrentClientsGetIdenticalVerdicts(t *testing.T) {
	d := sna.SampleDesign()
	want := directReports(t, d)
	ts := httptest.NewServer(NewServer(Config{Analysis: fastAnalysis(), MaxInFlight: 16}))
	defer ts.Close()
	body := requestBody(t, d, map[string]any{"deterministic": true})

	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			errs <- func() error {
				resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				var got map[string]string
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					return err
				}
				got = map[string]string{}
				for _, line := range bytes.Split(raw, []byte("\n")) {
					line = bytes.TrimSpace(line)
					if len(line) == 0 {
						continue
					}
					var rec rawRecord
					if err := json.Unmarshal(line, &rec); err != nil {
						return fmt.Errorf("bad record %q: %v", line, err)
					}
					if rec.Type != "report" {
						continue
					}
					var rep sna.NetReport
					if err := json.Unmarshal(rec.Report, &rep); err != nil {
						return err
					}
					var buf bytes.Buffer
					if err := json.Compact(&buf, rec.Report); err != nil {
						return err
					}
					got[rep.Cluster] = buf.String()
				}
				if len(got) != len(want) {
					return fmt.Errorf("got %d reports, want %d", len(got), len(want))
				}
				for cl, w := range want {
					if got[cl] != w {
						return fmt.Errorf("cluster %s diverged:\nserved %s\ndirect %s", cl, got[cl], w)
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestErrorPoliciesOverTheWire runs a design whose first cluster names an
// unknown cell (a StageBuild failure) under both policies: continue must
// stream the failure and still analyse the healthy cluster; fail-fast must
// stream the failure as well, and both end in a summary accounting for it.
func TestErrorPoliciesOverTheWire(t *testing.T) {
	d := sna.SampleDesign()
	d.Clusters[0].Victim.Cell = "XOR9" // unknown cell: StageBuild failure
	ts := httptest.NewServer(NewServer(Config{Analysis: fastAnalysis()}))
	defer ts.Close()

	for _, policy := range []string{"continue", "fail-fast"} {
		recs := postAnalyze(t, ts.Client(), ts.URL,
			requestBody(t, d, map[string]any{"policy": policy, "deterministic": true}))
		var nReports, nErrors int
		var errPayload struct {
			Cluster string `json:"cluster"`
			Stage   string `json:"stage"`
			Error   string `json:"error"`
		}
		for _, rec := range recs {
			switch rec.Type {
			case "report":
				nReports++
			case "cluster_error":
				nErrors++
				if err := json.Unmarshal(rec.Error, &errPayload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if nErrors != 1 {
			t.Fatalf("policy %s: %d cluster_error records, want 1", policy, nErrors)
		}
		if errPayload.Cluster != d.Clusters[0].Name || errPayload.Stage != "build" {
			t.Errorf("policy %s: error record %+v, want cluster %s stage build",
				policy, errPayload, d.Clusters[0].Name)
		}
		if policy == "continue" && nReports != len(d.Clusters)-1 {
			t.Errorf("continue: %d reports, want %d (every healthy cluster)", nReports, len(d.Clusters)-1)
		}
		last := recs[len(recs)-1]
		if last.Type != "summary" || last.Errors != 1 {
			t.Errorf("policy %s: terminal record %+v, want summary with errors=1", policy, last)
		}
	}
}

// A finite but absurd timestep (1e-7 ps, so TStop/Dt ≈ 10^10 steps) must
// not take the server down by sizing a result for it: every cluster
// streams a cluster_error naming the invalid option, and the next request
// on the same server is served normally.
func TestOversizedGridRequestKeepsServing(t *testing.T) {
	d := sna.SampleDesign()
	ts := httptest.NewServer(NewServer(Config{Analysis: fastAnalysis()}))
	defer ts.Close()

	recs := postAnalyze(t, ts.Client(), ts.URL,
		requestBody(t, d, map[string]any{"dt_ps": 1e-7, "policy": "continue", "deterministic": true}))
	var nErrors int
	for _, rec := range recs {
		switch rec.Type {
		case "report":
			t.Errorf("report streamed at dt_ps = 1e-7: %s", rec.Report)
		case "cluster_error":
			nErrors++
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Error, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, "invalid option Dt") {
				t.Errorf("cluster_error %q does not name the invalid option", e.Error)
			}
		}
	}
	if nErrors != len(d.Clusters) {
		t.Errorf("%d cluster_error records, want %d", nErrors, len(d.Clusters))
	}

	recs = postAnalyze(t, ts.Client(), ts.URL, requestBody(t, d, map[string]any{"deterministic": true}))
	if got := len(reportsByCluster(t, recs)); got != len(d.Clusters) {
		t.Errorf("next request: %d reports, want %d", got, len(d.Clusters))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientDisconnectCancelsAndLeaksNothing drops the client mid-stream
// and asserts the server observes the disconnect (canceled counter), stops
// the analysis, and settles back to its pre-request goroutine count — the
// leak-free contract for long-lived serving. The fleet gate admits one
// cluster and holds the other five until the request ends, so they are
// still pending when the client goes, however fast they would run.
func TestClientDisconnectCancelsAndLeaksNothing(t *testing.T) {
	analysis := fastAnalysis()
	analysis.Gate = &testGate{budget: 1}
	srv := NewServer(Config{Analysis: analysis})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := requestBody(t, sna.GenerateDesign("leak", 6), map[string]any{"deterministic": true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one streamed record, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler counts the cancel before it returns and gives back its
	// admission slot, so wait for both.
	waitFor(t, 30*time.Second, "server to count the disconnect and end the request", func() bool {
		return srv.canceled.Load() == 1 && srv.Stats().Requests.InFlight == 0
	})
	if tr, ok := ts.Client().Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	waitFor(t, 30*time.Second, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= base+3
	})
	if got := srv.Stats().Requests; got.InFlight != 0 || got.Canceled != 1 {
		t.Errorf("request stats %+v, want 0 in flight and 1 canceled", got)
	}
}

// TestSSEFraming asserts the Accept-negotiated Server-Sent-Events framing:
// same records, data:-prefixed, with the SSE content type.
func TestSSEFraming(t *testing.T) {
	d := sna.SampleDesign()
	d.Clusters = nil // empty design: instant, summary-only stream
	ts := httptest.NewServer(NewServer(Config{Analysis: fastAnalysis()}))
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(requestBody(t, d, nil)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasPrefix(body, "data: {\"type\":\"summary\"") {
		t.Fatalf("SSE stream does not open with a data: summary frame: %q", body)
	}
	if !strings.HasSuffix(body, "\n\n") {
		t.Fatalf("SSE frame not terminated by a blank line: %q", body)
	}
}

// TestOperationalEndpoints covers healthz, statsz and invalidate: the
// probe answers, the stats document accounts for served requests, and
// invalidation drops the pooled benches it reports.
func TestOperationalEndpoints(t *testing.T) {
	srv := NewServer(Config{Analysis: fastAnalysis()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(hb)) != `{"status":"ok"}` {
		t.Fatalf("healthz: %d %q", resp.StatusCode, hb)
	}

	postAnalyze(t, ts.Client(), ts.URL, requestBody(t, sna.SampleDesign(), nil))

	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests.Accepted != 1 || stats.Requests.Completed != 1 {
		t.Errorf("request stats %+v, want 1 accepted and completed", stats.Requests)
	}
	if stats.Cache.Misses == 0 {
		t.Error("cache stats show no characterisation at all")
	}
	if stats.RigPools.Benches == 0 {
		t.Error("no pooled benches after an analysis")
	}

	resp, err = ts.Client().Post(ts.URL+"/invalidate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Dropped int `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inv.Dropped == 0 {
		t.Error("invalidate dropped nothing")
	}
	if n := srv.Stats().RigPools.Benches; n != 0 {
		t.Errorf("%d benches resident after invalidate", n)
	}
}

// TestRequestValidationOverTheWire spot-checks the typed 4xx surface end
// to end (decodeRequest's full matrix lives in the fuzz target and unit
// cases): bad JSON, oversized cluster budgets and oversized bodies each
// map to their stable code.
func TestRequestValidationOverTheWire(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{
		Analysis:     fastAnalysis(),
		MaxClusters:  1,
		MaxBodyBytes: 1 << 20,
	}))
	defer ts.Close()

	post := func(body []byte) (int, string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error RequestError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body did not decode: %v", err)
		}
		return resp.StatusCode, e.Error.Code
	}

	if st, code := post([]byte("{not json")); st != http.StatusBadRequest || code != "bad_json" {
		t.Errorf("malformed body: %d %s, want 400 bad_json", st, code)
	}
	if st, code := post(requestBody(t, sna.SampleDesign(), nil)); st != http.StatusRequestEntityTooLarge || code != "too_many_clusters" {
		t.Errorf("over-budget design: %d %s, want 413 too_many_clusters", st, code)
	}
	big := []byte(`{"design":"` + strings.Repeat("a", 2<<20) + `"}`)
	if st, code := post(big); st != http.StatusRequestEntityTooLarge || code != "body_too_large" {
		t.Errorf("oversized body: %d %s, want 413 body_too_large", st, code)
	}
}

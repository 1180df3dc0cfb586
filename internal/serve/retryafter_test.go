package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// reject fires one request at a saturated server and returns the
// Retry-After hint of the expected 429.
func reject(t *testing.T, ts *httptest.Server, body []byte) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("unparseable Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	return ra
}

// TestRetryAfterTracksSaturation holds a 1-slot server saturated and
// asserts the Retry-After hint climbs the backoff ladder — 1, 2, 4 —
// clamps at the configured cap, and drops back to 1 once a slot frees:
// the hint tracks observed admission pressure, not a constant.
func TestRetryAfterTracksSaturation(t *testing.T) {
	gate := &testGate{} // budget 0: the admitted request parks on its first cluster
	opts := fastAnalysis()
	opts.Gate = gate
	srv := NewServer(Config{
		Analysis: opts, MaxInFlight: 1, FleetWorkers: -1,
		RetryAfterCap: 4 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := requestBody(t, sna.SampleDesign(), map[string]any{"deterministic": true})

	done := make(chan []byte, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		done <- raw
	}()
	waitFor(t, 30*time.Second, "the request to be admitted", func() bool {
		return srv.Stats().Requests.InFlight == 1
	})

	// Persistent saturation: consecutive rejections climb 1, 2, 4 and stay
	// clamped at the 4 s cap.
	for i, want := range []int{1, 2, 4, 4, 4} {
		if got := reject(t, ts, body); got != want {
			t.Fatalf("rejection %d: Retry-After %d, want %d", i+1, got, want)
		}
	}

	// Release the slot: the admitted request completes, pressure is
	// relieved, and the next saturated rejection starts from 1 s again.
	gate.setBudget(-1)
	if raw := <-done; raw == nil {
		t.Fatal("admitted request failed")
	}
	waitFor(t, 30*time.Second, "the slot to free", func() bool {
		return srv.Stats().Requests.InFlight == 0
	})
	done2 := make(chan struct{})
	gate.setBudget(0)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(done2)
	}()
	waitFor(t, 30*time.Second, "the second request to be admitted", func() bool {
		return srv.Stats().Requests.InFlight == 1
	})
	if got := reject(t, ts, body); got != 1 {
		t.Fatalf("post-release rejection: Retry-After %d, want the ladder reset to 1", got)
	}
	gate.setBudget(-1)
	<-done2
}

// TestRequestCornerSelection exercises the per-request corner knob end to
// end: an unknown corner is a typed bad_corner 400, a named corner tags
// every streamed report, and the default (cornerless) request's reports
// carry no corner key — the legacy wire schema.
func TestRequestCornerSelection(t *testing.T) {
	srv := NewServer(Config{Analysis: fastAnalysis()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	d := sna.SampleDesign()

	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json",
		bytes.NewReader(requestBody(t, d, map[string]any{"corner": "slowish"})))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error RequestError `json:"error"`
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown corner: status %d, want 400", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "bad_corner" {
		t.Fatalf("unknown corner body code %q (decode err %v), want bad_corner", e.Error.Code, err)
	}
	resp.Body.Close()

	for _, rec := range postAnalyze(t, ts.Client(), ts.URL, requestBody(t, d, map[string]any{"corner": "ss"})) {
		if rec.Type != "report" {
			continue
		}
		var rep sna.NetReport
		if err := json.Unmarshal(rec.Report, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Corner != "ss" {
			t.Fatalf("ss-corner report tagged %q", rep.Corner)
		}
	}
	for _, rec := range postAnalyze(t, ts.Client(), ts.URL, requestBody(t, d, nil)) {
		if rec.Type == "report" && bytes.Contains(rec.Report, []byte(`"corner"`)) {
			t.Fatalf("cornerless report grew a corner key: %s", rec.Report)
		}
	}

	// The per-corner /statsz block must now attribute work to both tags.
	stats := srv.Stats()
	if _, ok := stats.Corners["ss"]; !ok {
		t.Fatalf("/statsz corners block missing ss: %+v", stats.Corners)
	}
	if tech.Tech130().CornerTag() != "nominal" {
		t.Fatal("nominal tag changed")
	}
	if stats.Corners["ss"].Sim.DC == 0 {
		t.Fatalf("ss corner recorded no solver work: %+v", stats.Corners["ss"])
	}
	checkStatszCounterBlocks(t, ts.Client(), ts.URL)
}

// TestCornerStatsArePerServer: the corners block counts one server's own
// cache, so of two servers in one process the idle one reports no corner
// work after the other served an ss request.
func TestCornerStatsArePerServer(t *testing.T) {
	busy := NewServer(Config{Analysis: fastAnalysis()})
	idle := NewServer(Config{Analysis: fastAnalysis()})
	ts := httptest.NewServer(busy)
	defer ts.Close()
	postAnalyze(t, ts.Client(), ts.URL, requestBody(t, sna.SampleDesign(), map[string]any{"corner": "ss"}))

	if ss := busy.Stats().Corners["ss"]; ss.Sim.DC == 0 || ss.Cache.Misses == 0 {
		t.Fatalf("busy server charged its ss request nothing: %+v", ss)
	}
	st := idle.Stats()
	if len(st.Corners) != 0 {
		t.Fatalf("idle server reports corners %+v", st.Corners)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"corners"`)) {
		t.Fatalf("idle server's /statsz has a corners block: %s", b)
	}
}

// checkStatszCounterBlocks is the /statsz half of the counter JSON
// contract: the top-level sim block and every corners.*.sim block carry
// exactly the wire keys of sim.Counters.
func checkStatszCounterBlocks(t *testing.T, client *http.Client, url string) {
	t.Helper()
	want := jsonKeys(t, sim.Counters{})
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Sim     map[string]json.RawMessage `json:"sim"`
		Corners map[string]struct {
			Sim map[string]json.RawMessage `json:"sim"`
		} `json:"corners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := jsonKeys(t, doc.Sim); !slices.Equal(got, want) {
		t.Fatalf("/statsz sim keys %v, want %v", got, want)
	}
	if len(doc.Corners) == 0 {
		t.Fatal("/statsz has no corners block")
	}
	for tag, c := range doc.Corners {
		if got := jsonKeys(t, c.Sim); !slices.Equal(got, want) {
			t.Fatalf("/statsz corners.%s.sim keys %v, want %v", tag, got, want)
		}
	}
}

// jsonKeys returns the sorted top-level keys v marshals to.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

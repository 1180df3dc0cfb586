package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"stanoise/internal/sna"
)

// fuzzServer is the server the fuzz target decodes against: budgets tight
// enough that budget-rejection paths are reachable.
func fuzzServer() *Server {
	return NewServer(Config{MaxClusters: 4, DefaultDeadline: time.Second, MaxDeadline: time.Minute})
}

// FuzzRequestDecode holds the request decoder to its contract on
// arbitrary input: never panic, never return both (or neither) of result
// and error, and classify every rejection as a typed 4xx RequestError
// with a stable non-empty code. The seed corpus covers the interesting
// malformed shapes: truncated bodies, unknown fields, malformed grids,
// NaN/Inf/negative budgets, wrong JSON types and duplicate documents.
func FuzzRequestDecode(f *testing.F) {
	valid := func(extra map[string]any) []byte {
		m := map[string]any{"design": sna.SampleDesign()}
		for k, v := range extra {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	seeds := [][]byte{
		valid(nil),
		valid(map[string]any{"method": "golden", "policy": "continue", "align": false}),
		valid(map[string]any{"dt_ps": 1, "deadline_ms": 250, "max_clusters": 2, "deterministic": true}),
		valid(map[string]any{"feasibility": true}),
		valid(map[string]any{"feasibility": "yes"}),
		valid(map[string]any{"nonlinear_caps": true}),
		valid(map[string]any{"nonlinear_caps": "yes"}),
		valid(map[string]any{"dt_ps": -1}),
		valid(map[string]any{"deadline_ms": -5}),
		valid(map[string]any{"max_clusters": -1}),
		valid(map[string]any{"method": "spice"}),
		valid(map[string]any{"unknown_field": 1}),
		[]byte(``),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`42`),
		[]byte(`"design"`),
		[]byte(`{}`),
		[]byte(`{"design":null}`),
		[]byte(`{"design":{}}`),
		[]byte(`{"design":{"name":"x","tech":"cmos130","layer":"M4","clusters":[{"name":""}]}}`),
		[]byte(`{"design":{"name":"x","tech":"nope","layer":"M4"}}`),
		[]byte(`{"dt_ps":1e999,"design":{"name":"x","tech":"cmos130","layer":"M4"}}`),
		[]byte(`{"deadline_ms":1e308,"design":{"name":"x","tech":"cmos130","layer":"M4"}}`),
		[]byte(`{"design":{"name":"x","tech":"cmos130","layer":"M4"}}{"design":{}}`),
		valid(nil)[:40], // truncated mid-design
	}
	for _, s := range seeds {
		f.Add(s)
	}
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rerr := s.decodeRequest(bytes.NewReader(data))
		if (p == nil) == (rerr == nil) {
			t.Fatalf("decodeRequest returned result=%v error=%v; want exactly one", p != nil, rerr != nil)
		}
		if rerr != nil {
			if rerr.Status < 400 || rerr.Status > 499 {
				t.Fatalf("rejection status %d is not a 4xx", rerr.Status)
			}
			if rerr.Code == "" {
				t.Fatal("rejection without a stable code")
			}
			return
		}
		// Accepted requests must have fully defaulted, in-budget knobs.
		if p.design == nil {
			t.Fatal("accepted request without a design")
		}
		if !finitePositive(p.opts.Dt) {
			t.Fatalf("accepted dt %v is not finite positive", p.opts.Dt)
		}
		if p.deadline < 0 || p.deadline > time.Minute {
			t.Fatalf("accepted deadline %v escapes the clamp", p.deadline)
		}
		if n := len(p.design.Clusters); n > 4 {
			t.Fatalf("accepted design with %d clusters past the budget", n)
		}
	})
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// TestStatsOutCounterKeys is the -stats-out half of the counter JSON
// contract: every corners[] entry carries the corner name plus exactly the
// wire keys of sim.Counters.
func TestStatsOutCounterKeys(t *testing.T) {
	dir := t.TempDir()
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	statsOut := filepath.Join(dir, "stats.json")
	runFarm(context.Background(), charlib.NewCache(), nil, tech.Tech130(),
		[]tech.Corner{{Name: "tt"}, ss}, []charlib.CornerJob{{Kind: "INV", Drive: 1, Pin: "A"}},
		charlib.CornerSweepOptions{LoadCurve: charlib.LoadCurveOptions{NVin: 11, NVout: 11}},
		filepath.Join(dir, "lib.json"), statsOut)

	want := keysOf(t, sim.Counters{})
	want = append(want, "corner")
	slices.Sort(want)
	b, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Corners []map[string]json.RawMessage `json:"corners"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Corners) != 2 {
		t.Fatalf("%d corner entries, want 2", len(doc.Corners))
	}
	for _, c := range doc.Corners {
		if keys := keysOf(t, c); !slices.Equal(keys, want) {
			t.Fatalf("corner entry keys %v, want %v", keys, want)
		}
	}
}

// TestNominalRunWritesPlainOut: a run at the zero corner alone (libchar
// without -corners and -mc-samples) writes -out as given and labels its
// -stats-out entry "nominal", the tag /statsz uses.
func TestNominalRunWritesPlainOut(t *testing.T) {
	dir := t.TempDir()
	out, statsOut := filepath.Join(dir, "lib.json"), filepath.Join(dir, "stats.json")
	runFarm(context.Background(), charlib.NewCache(), nil, tech.Tech130(),
		[]tech.Corner{{}}, []charlib.CornerJob{{Kind: "INV", Drive: 1, Pin: "A"}},
		charlib.CornerSweepOptions{LoadCurve: charlib.LoadCurveOptions{NVin: 11, NVout: 11}},
		out, statsOut)

	var lib charlib.Library
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &lib); err != nil || len(lib.LoadCurves) != 1 || lib.Corner != "" {
		t.Fatalf("library at -out: %+v (err %v)", lib, err)
	}
	var doc farmStats
	if b, err = os.ReadFile(statsOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Corners) != 1 || doc.Corners[0].Corner != "nominal" || doc.TotalSolves == 0 {
		t.Fatalf("stats %+v, want one nominal entry with solves", doc)
	}
}

// keysOf returns the sorted top-level keys v marshals to.
func keysOf(t *testing.T, v any) []string {
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

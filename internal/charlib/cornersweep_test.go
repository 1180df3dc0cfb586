package charlib

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// sweepCorners is the test harness around SweepCorners: one INV job on the
// cmos130 card across the given corners.
func sweepCorners(t *testing.T, cache *Cache, corners []tech.Corner, grid int) []CornerResult {
	t.Helper()
	res, err := SweepCorners(context.Background(), cache, tech.Tech130(), corners,
		[]CornerJob{{Kind: "INV", Drive: 1, Pin: "A"}},
		CornerSweepOptions{LoadCurve: LoadCurveOptions{NVin: grid, NVout: grid}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustCorners resolves a list of standard corner names.
func mustCorners(t *testing.T, names ...string) []tech.Corner {
	t.Helper()
	out := make([]tech.Corner, 0, len(names))
	for _, n := range names {
		c, err := tech.CornerByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// totalIters sums the Newton iterations across a sweep's corner results.
func totalIters(res []CornerResult) int64 {
	var n int64
	for _, r := range res {
		n += r.Stats.NewtonIters
	}
	return n
}

// TestCornerSweepArtefactsDistinct asserts the aliasing property end to
// end: distinct corners produce numerically different tables under
// distinct cache keys, while the nominal corner's artefact is the legacy
// one byte for byte.
func TestCornerSweepArtefactsDistinct(t *testing.T) {
	cache := NewCache()
	corners := mustCorners(t, "tt", "ss", "ff")
	res := sweepCorners(t, cache, corners, 11)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	byName := map[string]*LoadCurve{}
	for _, r := range res {
		if len(r.Library.LoadCurves) == 0 {
			t.Fatalf("corner %s: no load curve in library", r.Corner.Name)
		}
		lc := r.Library.LoadCurves[0]
		if lc.CellName != "INV_X1" || lc.NoisyPin != "A" {
			t.Fatalf("corner %s: library holds %s pin %s, want INV_X1 pin A", r.Corner.Name, lc.CellName, lc.NoisyPin)
		}
		byName[r.Corner.Name] = lc
		wantCorner := r.Corner.Name
		if r.Corner.IsNominal() {
			wantCorner = ""
		}
		if r.Library.Corner != wantCorner {
			t.Fatalf("corner %s: library tagged %q", r.Corner.Name, r.Library.Corner)
		}
	}
	for _, pair := range [][2]string{{"tt", "ss"}, {"tt", "ff"}, {"ss", "ff"}} {
		a, b := byName[pair[0]], byName[pair[1]]
		if reflect.DeepEqual(a.I, b.I) {
			t.Fatalf("corners %s and %s produced identical tables", pair[0], pair[1])
		}
	}
	if keys := cache.Keys(); len(keys) != 3 {
		t.Fatalf("expected 3 distinct cache keys, got %d: %v", len(keys), keys)
	}

	// The nominal corner's artefact must be the legacy one, byte for byte:
	// a direct legacy characterisation lands on the same key (cache hit)
	// and the same numbers.
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	legacy, err := cache.LoadCurve(context.Background(), inv, st, "A", LoadCurveOptions{NVin: 11, NVout: 11})
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("legacy nominal request missed the farm's tt entry (misses %d -> %d)", before.Misses, after.Misses)
	}
	if !reflect.DeepEqual(legacy.I, byName["tt"].I) {
		t.Fatal("farm tt table differs from the legacy nominal characterisation")
	}
}

// TestCornerSweepWarmRerunZeroSolves is the farm's reuse proof: a second
// sweep over the same cache performs zero transistor-level solves and
// reports all-zero per-corner work.
func TestCornerSweepWarmRerunZeroSolves(t *testing.T) {
	cache := NewCache()
	corners := mustCorners(t, "ss", "ff")
	sweepCorners(t, cache, corners, 11)
	before := sim.Snapshot()
	res := sweepCorners(t, cache, corners, 11)
	delta := sim.Snapshot().Sub(before)
	if delta.Total() != 0 {
		t.Fatalf("warm rerun performed %d transistor-level solves", delta.Total())
	}
	if n := totalIters(res); n != 0 {
		t.Fatalf("warm rerun reported %d Newton iterations", n)
	}
}

// TestCornerSweepDeterministic asserts scheduling independence: two
// identical farm runs on fresh caches produce identical libraries, corner
// order and tables — every (job, corner) sweep is independent of the
// others, so worker scheduling cannot reach the bytes.
func TestCornerSweepDeterministic(t *testing.T) {
	corners := append(mustCorners(t, "ss", "tt", "ff"), tech.SampleCorners(2, 99, tech.SampleSpec{})...)
	a := sweepCorners(t, NewCache(), corners, 11)
	b := sweepCorners(t, NewCache(), corners, 11)
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Corner.Name != b[i].Corner.Name {
			t.Fatalf("corner order differs at %d: %s vs %s", i, a[i].Corner.Name, b[i].Corner.Name)
		}
		if !reflect.DeepEqual(a[i].Library, b[i].Library) {
			t.Fatalf("corner %s: libraries differ between identical runs", a[i].Corner.Name)
		}
	}
}

// TestCornerSweepMCSamplesNeverAlias runs a small Monte Carlo fan-out and
// checks every sample lands in its own cache entry with its own numbers.
func TestCornerSweepMCSamplesNeverAlias(t *testing.T) {
	cache := NewCache()
	samples := tech.SampleCorners(3, 7, tech.SampleSpec{})
	res := sweepCorners(t, cache, samples, 11)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if keys := cache.Keys(); len(keys) != 3 {
		t.Fatalf("expected 3 distinct cache keys, got %d: %v", len(keys), keys)
	}
	for i := 1; i < len(res); i++ {
		if reflect.DeepEqual(res[i].Library.LoadCurves[0].I, res[i-1].Library.LoadCurves[0].I) {
			t.Fatalf("samples %s and %s produced identical tables",
				res[i-1].Corner.Name, res[i].Corner.Name)
		}
	}
	// Per-corner cache attribution: every sample tag must appear.
	tags := cache.CornerStats()
	for _, r := range res {
		st, ok := tags[r.Corner.Name]
		if !ok || st.Misses != 1 {
			t.Fatalf("per-corner cache stats missing sample %s: %+v", r.Corner.Name, tags)
		}
	}
}

// TestWarmCornerMatchesColdCorner is the correctness property at
// non-nominal corners: warm starting changes Newton seeds, never roots, so
// each corner's farm table must match the cold reference sweep on the
// corner's card within solver tolerance.
func TestWarmCornerMatchesColdCorner(t *testing.T) {
	corners := mustCorners(t, "ss", "ff")
	warm := sweepCorners(t, nil, corners, 11)
	for _, r := range warm {
		inv := cell.MustNew(r.Corner.Apply(tech.Tech130()), "INV", 1)
		st, err := inv.SensitizedState("A", true)
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := characterizeLoadCurve(context.Background(), inv, st, "A", LoadCurveOptions{NVin: 11, NVout: 11}, false)
		if err != nil {
			t.Fatal(err)
		}
		wi := r.Library.LoadCurves[0]
		scale := 0.0
		for _, v := range cold.I {
			scale = math.Max(scale, math.Abs(v))
		}
		tol := 1e-6*scale + 1e-12
		for k := range cold.I {
			if d := math.Abs(cold.I[k] - wi.I[k]); d > tol {
				t.Fatalf("corner %s I[%d]: cold %v warm %v (|Δ| %.3g > tol %.3g)",
					r.Corner.Name, k, cold.I[k], wi.I[k], d, tol)
			}
		}
	}
}

// TestCornerSweepArtefactsServeEveryCorner holds the farm to building the
// very artefacts an analysis at each corner looks up: after SweepCorners
// over ss/tt/ff, a Cache.LoadCurve and Cache.PropTable request for every
// job on every corner's card at the same grids must hit the farm's entries
// (no new miss) and return the same bytes. A farm that keyed any corner's
// artefacts differently from a single-corner run would make every later
// analysis at that corner re-characterise what the farm had just stored.
func TestCornerSweepArtefactsServeEveryCorner(t *testing.T) {
	ctx := context.Background()
	base := tech.Tech130()
	corners := mustCorners(t, "ss", "tt", "ff")
	jobs := []CornerJob{{Kind: "INV", Drive: 1, Pin: "A"}, {Kind: "NAND2", Drive: 1, Pin: "B"}}
	opts := CornerSweepOptions{
		LoadCurve:   LoadCurveOptions{NVin: 11, NVout: 11},
		Prop:        true,
		PropOptions: PropOptions{Heights: []float64{0.6}, Widths: []float64{200e-12}, Loads: []float64{25e-15}, Dt: 2e-12},
	}
	cache := NewCache()
	res, err := SweepCorners(ctx, cache, base, corners, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	for _, r := range res {
		for ji, job := range jobs {
			cl := cell.MustNew(r.Corner.Apply(base), job.Kind, job.Drive)
			st, err := cl.SensitizedState(job.Pin, true)
			if err != nil {
				t.Fatal(err)
			}
			lc, err := cache.LoadCurve(ctx, cl, st, job.Pin, opts.LoadCurve)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := cache.PropTable(ctx, cl, st, job.Pin, opts.PropOptions)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]any{{lc, r.Library.LoadCurves[ji]}, {pt, r.Library.PropTables[ji]}} {
				got, err := json.Marshal(pair[0])
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("corner %s %s/%s: %T differs from the farm's", r.Corner.Name, job.Kind, job.Pin, pair[0])
				}
			}
		}
	}
	if after := cache.Stats(); after.Misses != before.Misses {
		t.Fatalf("per-corner lookups missed the farm's entries: misses %d -> %d", before.Misses, after.Misses)
	}
}

package sna

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
)

// warmColdOpts keeps the disk-tier tests fast: coarse grids, no alignment
// search (alignment re-simulates the victim driver transistor-level, which
// is evaluation work, not characterisation — the zero-sweep assertion is
// about characterisation).
func warmColdOpts(cacheDir string) Options {
	return Options{
		Method:    core.Macromodel,
		Dt:        2e-12,
		Align:     false,
		Workers:   2,
		CacheDir:  cacheDir,
		LoadCurve: charlib.LoadCurveOptions{NVin: 9, NVout: 9},
		NRC:       nrc.Options{Widths: []float64{150e-12, 600e-12}, Tol: 0.05, Dt: 2e-12},
	}
}

// reportsJSON renders reports with their run-varying timing cleared — the
// byte-level comparison form.
func reportsJSON(t *testing.T, reports []NetReport) []byte {
	t.Helper()
	for i := range reports {
		reports[i].ClearTiming()
	}
	raw, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWarmDiskRunMatchesColdAndSkipsAllSweeps is the acceptance test of
// the persistent store: a second run against the same cache directory must
// perform zero transistor-level engine invocations (DC or transient — the
// sim package counts every one) and produce byte-identical reports.
func TestWarmDiskRunMatchesColdAndSkipsAllSweeps(t *testing.T) {
	dir := t.TempDir()
	d := GenerateDesign("warmcold", 6)

	cold := NewAnalyzer(d, warmColdOpts(dir))
	if err := cold.StoreError(); err != nil {
		t.Fatal(err)
	}
	coldReports, err := cold.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs := cold.CacheStats(); cs.DiskHits != 0 {
		t.Errorf("cold run had %d disk hits", cs.DiskHits)
	}

	warm := NewAnalyzer(d, warmColdOpts(dir))
	before := sim.Snapshot()
	warmReports, err := warm.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	delta := sim.Snapshot().Sub(before)
	if delta.DC != 0 || delta.Transient != 0 {
		t.Errorf("warm run invoked the transistor-level engine: %d DC, %d transient solves (want 0, 0)",
			delta.DC, delta.Transient)
	}
	if cs := warm.CacheStats(); cs.DiskHits == 0 || cs.DiskHits != cs.Misses {
		t.Errorf("warm run stats: %+v (want every miss answered from disk)", cs)
	}

	coldJSON := reportsJSON(t, coldReports)
	warmJSON := reportsJSON(t, warmReports)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm reports differ from cold:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// TestTypedNilStoreIsSafe: a caller wiring `var s *charstore.Store` (nil)
// through Options.Store must get memory-only caching, not a nil-receiver
// panic on the first disk lookup.
func TestTypedNilStoreIsSafe(t *testing.T) {
	d := GenerateDesign("nilstore", 1)
	opts := warmColdOpts("")
	var s *charstore.Store
	opts.Store = s // non-nil interface, nil pointer inside
	reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
}

// TestSharedCacheIsNeverStoreMutated: CacheDir/Store configure the
// analyzer's *private* cache only — a caller-shared cache must come back
// exactly as configured, or two analyzers with different directories
// would clobber each other's disk tier.
func TestSharedCacheIsNeverStoreMutated(t *testing.T) {
	dir := t.TempDir()
	d := GenerateDesign("sharedcache", 1)
	shared := charlib.NewCache()
	opts := warmColdOpts(dir)
	opts.Cache = shared
	if _, err := NewAnalyzer(d, opts).Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	store, err := charstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 0 {
		t.Errorf("shared cache persisted %d artefacts into CacheDir; the store must stay untouched", n)
	}
}

// TestResolveShared pins the one rule NewAnalyzer and serve.NewServer
// resolve their shared machinery by: a supplied cache and pool win (and
// TestSharedCacheIsNeverStoreMutated holds the cache's tier untouched),
// Store comes before CacheDir, an unusable directory degrades to a
// memory-only cache with the error returned, a pool is made when none is
// given, and Store and CacheDir never survive resolution.
func TestResolveShared(t *testing.T) {
	open := func() *charstore.Store {
		s, err := charstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	given, shared, pool := open(), charlib.NewCache(), core.NewRigPool(core.RigPoolLimits{})
	for _, tc := range []struct {
		name          string
		opts          Options
		store, failed bool // a store returned; a store error returned
	}{
		{"shared cache", Options{Cache: shared, Store: given, CacheDir: t.TempDir(), RigPools: pool}, false, false},
		{"store before dir", Options{Store: given, CacheDir: "/dev/null/not-a-directory"}, true, false},
		{"dir", Options{CacheDir: t.TempDir()}, true, false},
		{"unusable dir", Options{CacheDir: "/dev/null/not-a-directory"}, false, true},
		{"memory only", Options{}, false, false},
	} {
		got, store, err := ResolveShared(tc.opts)
		if (store != nil) != tc.store || (err != nil) != tc.failed {
			t.Errorf("%s: store %v, err %v; want a store %v, an error %v", tc.name, store, err, tc.store, tc.failed)
		}
		if tc.name == "store before dir" && store != given {
			t.Errorf("%s: returned store %p, want the given %p", tc.name, store, given)
		}
		if got.Cache == nil || got.RigPools == nil || got.Store != nil || got.CacheDir != "" {
			t.Errorf("%s: resolved cache %v, pool %v, store %v, dir %q", tc.name, got.Cache, got.RigPools, got.Store, got.CacheDir)
		}
		if tc.opts.Cache != nil && (got.Cache != shared || got.RigPools != pool) {
			t.Errorf("%s: the supplied cache and pool were replaced", tc.name)
		}
	}
}

// TestCacheDirUnusableDegradesToMemory: a cache directory that cannot be
// created must not fail analysis — memory-only caching with an
// inspectable error.
func TestCacheDirUnusableDegradesToMemory(t *testing.T) {
	d := GenerateDesign("degrade", 1)
	opts := warmColdOpts("/dev/null/not-a-directory")
	a := NewAnalyzer(d, opts)
	if a.StoreError() == nil {
		t.Fatal("unusable cache dir reported no store error")
	}
	reports, err := a.Analyze(context.Background())
	if err != nil {
		t.Fatalf("analysis failed without a store: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
}

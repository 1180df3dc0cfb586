package charlib

import (
	"context"
	"errors"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/thevenin"
)

// recheckLeaseStore is a LeaseStore whose lease is free only once another
// holder has finished the build: the first Get misses, and the re-check
// after the lease finds the holder's artefact.
type recheckLeaseStore struct {
	*fakeStore
	v any
}

func (s *recheckLeaseStore) AcquireBuildLease(_ context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (func(), error) {
	if err := s.Put(kind, cl, st, pin, optsFP, s.v); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// TestCornerStatsChargeEveryKind holds the cache to charging each build's
// solver work to the corner of its card, for all four artefact kinds. A
// build on an ss card adds exactly the counters its characteriser returns,
// which are all the work the characteriser did; a memory hit, a store hit
// and a lease re-check hit add nothing.
func TestCornerStatsChargeEveryKind(t *testing.T) {
	ctx := context.Background()
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	inv := cell.MustNew(ss.Apply(tech.Tech130()), "INV", 1)
	if tag := inv.Tech.CornerTag(); tag != "ss" {
		t.Fatalf("ss card tagged %q", tag)
	}
	lcOpts := LoadCurveOptions{NVin: 7, NVout: 7}
	propOpts := PropOptions{Heights: []float64{0.6}, Widths: []float64{200e-12}, Loads: []float64{25e-15}, Dt: 2e-12}
	nrcOpts := nrc.Options{Widths: []float64{200e-12}, Tol: 0.05}
	low, high := cell.State{"A": false}, cell.State{"A": true}
	const load = 40e-15

	for _, k := range []struct {
		kind string
		// direct runs the characteriser and returns its counters.
		direct func() (sim.Counters, error)
		// cached requests the same artefact through c.
		cached func(c *Cache) (any, error)
	}{
		{"lc", func() (sim.Counters, error) {
			_, w, err := characterizeLoadCurve(ctx, inv, low, "A", lcOpts, true)
			return w, err
		}, func(c *Cache) (any, error) { return c.LoadCurve(ctx, inv, low, "A", lcOpts) }},
		{"prop", func() (sim.Counters, error) {
			_, w, err := characterizePropagation(ctx, inv, low, "A", propOpts, propSeeded)
			return w, err
		}, func(c *Cache) (any, error) { return c.PropTable(ctx, inv, low, "A", propOpts) }},
		{"nrc", func() (sim.Counters, error) {
			_, w, err := nrc.Characterize(ctx, inv, high, "A", nrcOpts)
			return w, err
		}, func(c *Cache) (any, error) { return c.NRCCurve(ctx, inv, high, "A", nrcOpts) }},
		{"thev", func() (sim.Counters, error) {
			_, w, err := thevenin.Fit(ctx, inv, low, "A", load, thevenin.FitOptions{})
			return w, err
		}, func(c *Cache) (any, error) { return c.TheveninFit(ctx, inv, low, "A", load, thevenin.FitOptions{}) }},
	} {
		t.Run(k.kind, func(t *testing.T) {
			before := sim.Snapshot()
			want, err := k.direct()
			if err != nil {
				t.Fatal(err)
			}
			if did := sim.Snapshot().Sub(before); did != want {
				t.Fatalf("characteriser returned %+v, did %+v", want, did)
			}
			if want.Total() == 0 {
				t.Fatal("characteriser reported no solves")
			}

			store := newFakeStore()
			c := NewCache()
			c.SetStore(store)
			built, err := k.cached(c)
			if err != nil {
				t.Fatal(err)
			}
			check := func(c *Cache, what string, wantSim sim.Counters, wantCache CacheStats) {
				t.Helper()
				corners := c.CornerStats()
				if len(corners) != 1 {
					t.Fatalf("%s: corners %v, want ss alone", what, corners)
				}
				if got := corners["ss"]; got.Sim != wantSim || got.Cache != wantCache {
					t.Fatalf("%s: ss charged %+v, want sim %+v cache %+v", what, got, wantSim, wantCache)
				}
			}
			check(c, "build", want, CacheStats{Entries: 1, Misses: 1})
			if _, err := k.cached(c); err != nil {
				t.Fatal(err)
			}
			check(c, "memory hit", want, CacheStats{Entries: 1, Misses: 1, Hits: 1})

			fromStore := NewCache()
			fromStore.SetStore(store)
			if _, err := k.cached(fromStore); err != nil {
				t.Fatal(err)
			}
			check(fromStore, "store hit", sim.Counters{}, CacheStats{Entries: 1, Misses: 1, DiskHits: 1})

			afterLease := NewCache()
			afterLease.SetStore(&recheckLeaseStore{fakeStore: newFakeStore(), v: built})
			if _, err := k.cached(afterLease); err != nil {
				t.Fatal(err)
			}
			check(afterLease, "lease re-check hit", sim.Counters{}, CacheStats{Entries: 1, Misses: 1, DiskHits: 1})
		})
	}
}

// TestCornerStatsChargeFailedBuildOnce: a failed build's work is charged
// once, and the memoized failure served to a later request adds nothing
// (nor counts as a corner hit: only served artefacts do).
func TestCornerStatsChargeFailedBuildOnce(t *testing.T) {
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	cl := cell.MustNew(ss.Apply(tech.Tech130()), "INV", 1)
	work := sim.Counters{DC: 3, NewtonIters: 17}
	sentinel := errors.New("no convergence")
	c := NewCache()
	builds := 0
	for i := 0; i < 2; i++ {
		_, got, err := c.artefact(context.Background(), "lc", cl, cell.State{"A": false}, "A", "fp", func() (any, sim.Counters, error) {
			builds++
			return nil, work, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("request %d: err %v", i, err)
		}
		if want := [2]sim.Counters{work, {}}[i]; got != want {
			t.Fatalf("request %d reported %+v, want %+v", i, got, want)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1", builds)
	}
	got := c.CornerStats()["ss"]
	if got.Sim != work || got.Cache != (CacheStats{Entries: 1, Misses: 1}) {
		t.Fatalf("ss charged %+v, want sim %+v once", got, work)
	}
}

// TestCacheStatsSumCorners: the cache counts each request once, per
// corner, and its top-level counters are the corners' summed. A failed
// build served twice, a store hit, a lease re-check hit and a memory hit
// on two corners leave Stats equal to the corner sums.
func TestCacheStatsSumCorners(t *testing.T) {
	ctx := context.Background()
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	nominal := cell.MustNew(tech.Tech130(), "INV", 1)
	slow := cell.MustNew(ss.Apply(tech.Tech130()), "INV", 1)
	low := cell.State{"A": false}
	c := NewCache()
	for i := 0; i < 2; i++ {
		if _, _, err := c.artefact(ctx, "lc", slow, low, "A", "fails", func() (any, sim.Counters, error) {
			return nil, sim.Counters{DC: 1}, errors.New("no convergence")
		}); err == nil {
			t.Fatal("failed build served no error")
		}
	}
	store := &recheckLeaseStore{fakeStore: newFakeStore(), v: "leased"}
	store.m[store.key("lc", nominal, low, "A", "stored")] = "stored"
	c.SetStore(store)
	noBuild := func() (any, sim.Counters, error) {
		t.Error("built an artefact the store holds")
		return nil, sim.Counters{}, nil
	}
	for _, req := range []struct {
		cl *cell.Cell
		fp string
	}{{nominal, "stored"}, {slow, "leased"}, {slow, "leased"}} {
		if _, _, err := c.artefact(ctx, "lc", req.cl, low, "A", req.fp, noBuild); err != nil {
			t.Fatal(err)
		}
	}
	var sum CacheStats
	for _, cs := range c.CornerStats() {
		sum.Hits += cs.Cache.Hits
		sum.Misses += cs.Cache.Misses
		sum.DiskHits += cs.Cache.DiskHits
	}
	got := c.Stats()
	if got.Hits != sum.Hits || got.Misses != sum.Misses || got.DiskHits != sum.DiskHits {
		t.Fatalf("Stats %+v, corners sum to %+v", got, sum)
	}
	if want := (CacheStats{Entries: 3, Hits: 1, Misses: 3, DiskHits: 2}); got != want {
		t.Errorf("Stats %+v, want %+v", got, want)
	}
}

package charlib

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// fakeStore is an in-memory PersistentStore recording its traffic, so the
// cache's two-tier contract is testable without disk or characterisation.
type fakeStore struct {
	mu      sync.Mutex
	m       map[string]any
	gets    int
	puts    int
	putErr  error
	lastPut any
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[string]any{}} }

func (f *fakeStore) key(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) string {
	return cellKey(kind, cl, st, pin, optsFP)
}

func (f *fakeStore) Get(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.m[f.key(kind, cl, st, pin, optsFP)]
	return v, ok
}

func (f *fakeStore) Put(kind string, cl *cell.Cell, st cell.State, pin, optsFP string, v any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.lastPut = v
	if f.putErr != nil {
		return f.putErr
	}
	f.m[f.key(kind, cl, st, pin, optsFP)] = v
	return nil
}

func (f *fakeStore) snapshot() (gets, puts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.puts
}

func TestCacheReadsThroughStore(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	st := cell.State{"A": false}
	stored := &LoadCurve{CellName: "INV_X1", NVin: 2, NVout: 2, VinMax: 1, VoutMax: 1, I: []float64{1, 2, 3, 4}}

	f := newFakeStore()
	f.m[f.key("lc", cl, st, "A", "7,7,0.2")] = stored

	c := NewCache()
	c.SetStore(f)
	builds := 0
	v, _, err := c.artefact(context.Background(), "lc", cl, st, "A", "7,7,0.2", func() (any, sim.Counters, error) {
		builds++
		return nil, sim.Counters{}, errors.New("should not build: store has it")
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Error("build ran despite a disk hit")
	}
	if v != any(stored) {
		t.Error("disk hit returned a different value")
	}
	if s := c.Stats(); s.DiskHits != 1 || s.Misses != 1 {
		t.Errorf("stats after disk hit: %+v", s)
	}
	// The artefact is now memoized in memory: no further store traffic.
	getsBefore, _ := f.snapshot()
	if _, _, err := c.artefact(context.Background(), "lc", cl, st, "A", "7,7,0.2", func() (any, sim.Counters, error) {
		t.Error("memory hit rebuilt")
		return nil, sim.Counters{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if gets, _ := f.snapshot(); gets != getsBefore {
		t.Error("memory hit consulted the store")
	}
	if s := c.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Errorf("stats after memory hit: %+v", s)
	}
}

func TestCacheWritesBehindOnFreshBuild(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	st := cell.State{"A": false}
	built := &LoadCurve{CellName: "INV_X1", NVin: 2, NVout: 2, VinMax: 1, VoutMax: 1, I: []float64{9, 9, 9, 9}}

	f := newFakeStore()
	c := NewCache()
	c.SetStore(f)
	v, _, err := c.artefact(context.Background(), "lc", cl, st, "A", "fp", func() (any, sim.Counters, error) {
		return built, sim.Counters{}, nil
	})
	if err != nil || v != any(built) {
		t.Fatalf("build through store: %v %v", v, err)
	}
	if _, puts := f.snapshot(); puts != 1 {
		t.Errorf("store saw %d puts, want 1", puts)
	}
	if f.lastPut != any(built) {
		t.Error("store received a different value than the build produced")
	}
	// A failing store write never fails the analysis.
	f2 := newFakeStore()
	f2.putErr = errors.New("disk full")
	c2 := NewCache()
	c2.SetStore(f2)
	if _, _, err := c2.artefact(context.Background(), "lc", cl, st, "A", "fp", func() (any, sim.Counters, error) {
		return built, sim.Counters{}, nil
	}); err != nil {
		t.Errorf("store write failure surfaced to the caller: %v", err)
	}
}

func TestCacheNeverPersistsFailedOrCancelledBuilds(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	st := cell.State{"A": false}

	f := newFakeStore()
	c := NewCache()
	c.SetStore(f)
	if _, _, err := c.artefact(context.Background(), "lc", cl, st, "A", "bad", func() (any, sim.Counters, error) {
		return nil, sim.Counters{}, errors.New("characterisation failed")
	}); err == nil {
		t.Fatal("failed build returned no error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, _, err := c.artefact(ctx, "lc", cl, st, "A", "cancelled", func() (any, sim.Counters, error) {
		cancel()
		return nil, sim.Counters{}, ctx.Err()
	}); err == nil {
		t.Fatal("cancelled build returned no error")
	}
	if _, puts := f.snapshot(); puts != 0 {
		t.Errorf("store saw %d puts from failed/cancelled builds, want 0", puts)
	}
}

func TestNilCacheArtefactPassthrough(t *testing.T) {
	var c *Cache
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	built := 0
	v, _, err := c.artefact(context.Background(), "lc", cl, cell.State{"A": false}, "A", "fp", func() (any, sim.Counters, error) {
		built++
		return "built", sim.Counters{}, nil
	})
	if err != nil || v != "built" || built != 1 {
		t.Fatalf("nil cache artefact: v=%v err=%v built=%d", v, err, built)
	}
}

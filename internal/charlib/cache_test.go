package charlib

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

func TestCacheMemoizesLoadCurve(t *testing.T) {
	tt := tech.Tech130()
	st := cell.State{"A": false}
	opts := LoadCurveOptions{NVin: 11, NVout: 11}
	c := NewCache()

	lc1, err := c.LoadCurve(context.Background(), cell.MustNew(tt, "INV", 1), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	// A distinct *cell.Cell instance with the same configuration must hit.
	lc2, err := c.LoadCurve(context.Background(), cell.MustNew(tt, "INV", 1), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	if lc1 != lc2 {
		t.Error("identical cell configuration was re-characterised")
	}
	if s := c.Stats(); s.Entries != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats after hit: %+v", s)
	}

	// A different drive is a different configuration: must miss.
	lc3, err := c.LoadCurve(context.Background(), cell.MustNew(tt, "INV", 2), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	if lc3 == lc1 {
		t.Error("different drive shared a cache entry")
	}
	// So is a different grid quality on the same cell.
	lc4, err := c.LoadCurve(context.Background(), cell.MustNew(tt, "INV", 1), st, "A", LoadCurveOptions{NVin: 21, NVout: 21})
	if err != nil {
		t.Fatal(err)
	}
	if lc4 == lc1 {
		t.Error("different options shared a cache entry")
	}
	if s := c.Stats(); s.Entries != 3 || s.Misses != 3 {
		t.Errorf("stats after distinct configs: %+v", s)
	}
}

func TestCacheMemoizesPropTable(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "NAND2", 1)
	st, err := cl.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := PropOptions{
		Heights: []float64{0.6, 1.2},
		Widths:  []float64{200e-12, 500e-12},
		Loads:   []float64{30e-15},
		Dt:      2e-12,
	}
	c := NewCache()
	pt1, err := c.PropTable(context.Background(), cl, st, "B", opts)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := c.PropTable(context.Background(), cell.MustNew(tt, "NAND2", 1), st, "B", opts)
	if err != nil {
		t.Fatal(err)
	}
	if pt1 != pt2 {
		t.Error("identical prop configuration was re-characterised")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var builds atomic.Int32
	release := make(chan struct{})
	const goroutines = 16

	var wg sync.WaitGroup
	vals := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.do(context.Background(), "shared", func() (any, error) {
				builds.Add(1)
				<-release // hold the build so every goroutine piles up
				return "artefact", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != "artefact" {
			t.Errorf("goroutine %d got %v", i, v)
		}
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	c := NewCache()
	sentinel := errors.New("characterisation failed")
	var builds int
	for i := 0; i < 3; i++ {
		_, err := c.do(context.Background(), "bad", func() (any, error) {
			builds++
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("call %d: err = %v", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("failing build ran %d times, want 1", builds)
	}
}

func TestCacheBuildPanicDoesNotDeadlock(t *testing.T) {
	c := NewCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic was swallowed")
			}
		}()
		c.do(context.Background(), "boom", func() (any, error) { panic("kaboom") })
	}()
	// A later requester of the same key must get a memoized error
	// immediately, not block on a flight that never finished.
	done := make(chan error, 1)
	go func() {
		_, err := c.do(context.Background(), "boom", func() (any, error) { return "ok", nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("panicked build memoized no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requester after a panicked build deadlocked")
	}
}

func TestNilCachePassthrough(t *testing.T) {
	var c *Cache
	tt := tech.Tech130()
	lc, err := c.LoadCurve(context.Background(), cell.MustNew(tt, "INV", 1), cell.State{"A": false}, "A",
		LoadCurveOptions{NVin: 11, NVout: 11})
	if err != nil || lc == nil {
		t.Fatalf("nil cache LoadCurve: %v %v", lc, err)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats: %+v", s)
	}
	if c.Keys() != nil {
		t.Error("nil cache has keys")
	}
}

package charlib

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stanoise/internal/cell"
	"stanoise/internal/nrc"
)

// Cache is a thread-safe memoization layer over cell characterisation. A
// design re-uses the same few cell/drive/state configurations on thousands
// of nets, so the design-level analysis flow shares one Cache across all
// clusters (and all worker goroutines): the first cluster to need an
// artefact characterises it, every later cluster gets the stored result.
//
// Entries are keyed by artefact kind, technology, cell (the name embeds the
// drive strength), characterisation state, pin, and an options fingerprint,
// so distinct qualities never alias. Concurrent requests for the same key
// are single-flighted: one goroutine builds while the others wait for the
// result instead of duplicating the work.
//
// A Cache optionally carries a persistent second tier (see SetStore): on a
// memory miss the disk store is consulted before characterising, and every
// successful fresh build is written behind to disk — so a second process
// (or a second run of the same tool) starts warm. Cancelled or failed
// builds are never persisted.
//
// A nil *Cache is valid and simply characterises on every call.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*flight
	store    PersistentStore
	hits     int
	misses   int
	diskHits int
	// corner holds per-corner-tag cache counters (see CornerStats), fed by
	// Artefact so a corner-matrix farm can see cache effectiveness per
	// corner on /statsz. Lazily allocated; empty until the first Artefact.
	corner map[string]*CacheStats
}

// PersistentStore is the on-disk tier of the cache, implemented by
// charstore.Store. The cache keeps only this narrow view so the in-memory
// layer never depends on the serialisation layer.
//
// Get returns the decoded artefact for the configuration or ok=false on
// any miss — including corruption and version mismatches, which must
// degrade to a miss, never an error. Put persists a freshly built
// artefact; its error is advisory (persistence is an optimisation, never a
// correctness gate). Both must be safe for concurrent use.
type PersistentStore interface {
	Get(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (any, bool)
	Put(kind string, cl *cell.Cell, st cell.State, pin, optsFP string, v any) error
}

// LeaseStore is the optional cross-process extension of PersistentStore,
// implemented by charstore.Store. When the attached store also provides
// build leases, Artefact single-flights characterisation *between
// processes* sharing the store directory, not just between goroutines: on
// a disk miss it acquires the configuration's build lease, re-checks the
// store (the usual reason the lease became free is that its previous
// holder finished the build), and only then characterises.
//
// AcquireBuildLease blocks until the caller holds the lease or ctx is
// done; the returned release function must be called exactly once.
// Lease failures must degrade to building without the lease — duplicated
// work, never a lost result.
type LeaseStore interface {
	PersistentStore
	AcquireBuildLease(ctx context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (func(), error)
}

// flight is one memoized build: done closes when val/err are final.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache ready for concurrent use.
func NewCache() *Cache { return &Cache{entries: map[string]*flight{}} }

// SetStore attaches (or, with nil, detaches) the persistent tier. Call it
// before sharing the cache; attaching mid-flight is safe but entries
// already memoized in memory are not retroactively persisted.
func (c *Cache) SetStore(s PersistentStore) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// getStore snapshots the persistent tier.
func (c *Cache) getStore() PersistentStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// CacheStats reports cache effectiveness counters. The JSON tags are part
// of the stable snacheck -json schema.
type CacheStats struct {
	Entries int `json:"entries"` // distinct artefacts built (or building)
	Hits    int `json:"hits"`    // requests served from an existing entry
	Misses  int `json:"misses"`  // requests that triggered a build
	// DiskHits counts the misses that were then answered by the persistent
	// store instead of a fresh characterisation. Misses includes them: a
	// warm-disk run shows Misses == DiskHits, a cold run DiskHits == 0.
	DiskHits int `json:"disk_hits"`
}

// Stats snapshots the counters. Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits}
}

// CornerStats snapshots the per-corner cache counters, keyed by the corner
// tag of the card each artefact was requested for (tech.Tech.CornerTag:
// "nominal" or the corner name). Only Artefact-routed requests are
// attributed (typed accessors all route through Artefact); Entries counts
// the builds this cache started for the corner. Safe on a nil cache.
func (c *Cache) CornerStats() map[string]CacheStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.corner))
	for tag, st := range c.corner {
		out[tag] = *st
	}
	return out
}

// noteCorner folds one Artefact outcome into the per-corner counters.
func (c *Cache) noteCorner(tag string, built, diskHit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.corner == nil {
		c.corner = map[string]*CacheStats{}
	}
	st := c.corner[tag]
	if st == nil {
		st = &CacheStats{}
		c.corner[tag] = st
	}
	switch {
	case built:
		st.Entries++
		st.Misses++
		if diskHit {
			st.DiskHits++
		}
	default:
		st.Hits++
	}
}

// Keys returns the sorted entry keys, for inspection and tests.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Do returns the memoized value for key, building it at most once. If the
// key is being built by another goroutine, Do waits for that build rather
// than starting a second one. Build errors are memoized too, so a failing
// configuration fails identically for every requester. A nil cache just
// calls build.
//
// Cancellation is never memoized: a build abandoned because its ctx was
// cancelled is forgotten, so the next requester (whose context may well be
// alive) re-characterises instead of inheriting a stale context.Canceled.
// Waiters blocked on another goroutine's build also honour their own ctx.
func (c *Cache) Do(ctx context.Context, key string, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		c.mu.Lock()
		if f, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isCtxErr(f.err) && ctx.Err() == nil {
				// The builder's run was cancelled (and the entry has been
				// forgotten); our context is still live, so try to become
				// the builder ourselves.
				continue
			}
			// Count the hit only once a memoized result is actually
			// served, so abandoned waits and forget-and-rebuild retries
			// don't inflate the stats.
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return f.val, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.entries[key] = f
		c.misses++
		c.mu.Unlock()
		// done must close even if build panics, or every waiter on this key
		// (and all future requesters) would block forever; the waiters see a
		// memoized error while the panic propagates in the builder.
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("charlib: cache build for %q panicked: %v", key, r)
				close(f.done)
				panic(r)
			}
			if isCtxErr(f.err) {
				c.forget(key, f)
			}
			close(f.done)
		}()
		f.val, f.err = build()
		return f.val, f.err
	}
}

// isCtxErr reports whether an error is a context cancellation or timeout —
// the class of build outcomes the cache must not memoize.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// forget removes the entry for key if it still belongs to flight f. Called
// before f.done closes, so a retrying waiter always observes the removal.
func (c *Cache) forget(key string, f *flight) {
	c.mu.Lock()
	if c.entries[key] == f {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// CellKey builds a cache key for an artefact of the given kind ("lc",
// "prop", "nrc", ...) characterised on a cell configuration. The cell name
// embeds the drive strength, optsFP fingerprints the characterisation
// options so different qualities never alias, and the card keys by
// tech.Tech.Fingerprint — the same identity the persistent tier hashes —
// so corner-derived and nonlinear-cap cards never alias in memory either.
// This is the *in-memory* key; the persistent tier derives its own
// content-addressed key from the same configuration (plus the cell netlist
// and model version).
func CellKey(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) string {
	return kind + "|" + cl.Tech.Fingerprint() + "|" + cl.Name() + "|" + st.String() + "|" + pin + "|" + optsFP
}

// Artefact runs the full two-tier lookup for one artefact of the given
// kind: memory (single-flighted), then the persistent store, then build.
// A successful fresh build is written behind to the store; build errors
// and cancellations are never persisted. optsFP must fingerprint every
// option that shapes the result. A nil cache just builds.
//
// This is the extension point for artefact kinds the cache has no typed
// accessor for (core uses it for Thevenin driver fits).
func (c *Cache) Artefact(ctx context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	// built/diskHit are only written by this call's own closure: Do
	// single-flights, so when another goroutine owns the build our closure
	// never runs and the request is attributed as a per-corner hit.
	built, diskHit := false, false
	v, err := c.Do(ctx, CellKey(kind, cl, st, pin, optsFP), func() (any, error) {
		built = true
		s := c.getStore()
		if s != nil {
			if v, ok := s.Get(kind, cl, st, pin, optsFP); ok {
				c.mu.Lock()
				c.diskHits++
				c.mu.Unlock()
				diskHit = true
				return v, nil
			}
			if ls, ok := s.(LeaseStore); ok {
				// Disk miss on a lease-capable store: single-flight the build
				// across processes. Lease errors (unwritable lease dir, ctx
				// cancellation mid-wait with ctx still live overall) degrade
				// to building leaseless — duplicated work, never a failure.
				if release, lerr := ls.AcquireBuildLease(ctx, kind, cl, st, pin, optsFP); lerr == nil {
					defer release()
					// Re-check: the usual reason the lease became free is
					// that its previous holder finished this very build.
					if v, ok := s.Get(kind, cl, st, pin, optsFP); ok {
						c.mu.Lock()
						c.diskHits++
						c.mu.Unlock()
						diskHit = true
						return v, nil
					}
				} else if isCtxErr(lerr) {
					return nil, lerr
				}
			}
		}
		v, err := build()
		if err == nil && s != nil {
			// Best-effort write-behind: a full disk or unwritable store
			// directory costs persistence, never the analysis.
			_ = s.Put(kind, cl, st, pin, optsFP, v)
		}
		return v, err
	})
	if err == nil || built {
		c.noteCorner(cl.Tech.CornerTag(), built, diskHit)
	}
	return v, err
}

// loadCurveFP fingerprints normalized load-curve options — the exact fp
// Cache.LoadCurve keys on. The corner-sweep driver reuses it (plus a
// continuation suffix) so a single-corner farm run and a plain LoadCurve
// call address the same artefact. Every fp ends in the sim.Policy
// fingerprint, which is empty for the cold policy.
func loadCurveFP(opts LoadCurveOptions) string {
	return fmt.Sprintf("%d,%d,%g", opts.NVin, opts.NVout, opts.MarginFrac) + opts.Policy.Fingerprint()
}

// LoadCurve returns the memoized VCCS load-curve table for the cell
// configuration, characterising it on first use.
func (c *Cache) LoadCurve(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts LoadCurveOptions) (*LoadCurve, error) {
	if c == nil {
		return CharacterizeLoadCurve(ctx, cl, st, pin, opts)
	}
	opts = opts.normalize()
	v, err := c.Artefact(ctx, "lc", cl, st, pin, loadCurveFP(opts), func() (any, error) {
		return CharacterizeLoadCurve(ctx, cl, st, pin, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*LoadCurve), nil
}

// propTableFP fingerprints normalized prop-table options — the exact fp
// Cache.PropTable keys on. The corner-sweep driver reuses it so a farm run
// and a plain PropTable call address the same artefact.
func propTableFP(opts PropOptions) string {
	return fmt.Sprintf("%v,%v,%v,%g", opts.Heights, opts.Widths, opts.Loads, opts.Dt) + opts.Policy.Fingerprint()
}

// PropTable returns the memoized propagation table for the cell
// configuration, characterising it on first use.
func (c *Cache) PropTable(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts PropOptions) (*PropTable, error) {
	if c == nil {
		return CharacterizePropagation(ctx, cl, st, pin, opts)
	}
	opts = opts.normalize(cl.Tech.VDD)
	v, err := c.Artefact(ctx, "prop", cl, st, pin, propTableFP(opts), func() (any, error) {
		return CharacterizePropagation(ctx, cl, st, pin, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*PropTable), nil
}

// NRCCurve returns the memoized Noise Rejection Curve of a receiver pin in
// the given quiet state, characterising it on first use.
func (c *Cache) NRCCurve(ctx context.Context, recv *cell.Cell, st cell.State, pin string, opts nrc.Options) (*nrc.Curve, error) {
	if c == nil {
		return nrc.Characterize(ctx, recv, st, pin, opts)
	}
	opts = opts.Normalized()
	fp := fmt.Sprintf("%v,%g,%g,%g,%g", opts.Widths, opts.LoadCap, opts.FailFrac, opts.Tol, opts.Dt) + opts.Policy.Fingerprint()
	v, err := c.Artefact(ctx, "nrc", recv, st, pin, fp, func() (any, error) {
		return nrc.Characterize(ctx, recv, st, pin, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*nrc.Curve), nil
}

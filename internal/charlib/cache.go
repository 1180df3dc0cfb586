package charlib

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stanoise/internal/cell"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/thevenin"
)

// Cache is a thread-safe memoization layer over cell characterisation. A
// design re-uses the same few cell/drive/state configurations on thousands
// of nets, so the design-level analysis flow shares one Cache across all
// clusters (and all worker goroutines): the first cluster to need an
// artefact characterises it, every later cluster gets the stored result.
//
// The cache is the one front door for characterised artefacts. Its four
// accessors (LoadCurve, PropTable, NRCCurve, TheveninFit) are the only code
// that fingerprints an artefact's options, and the build path they share
// keys, builds, persists and charges every artefact to its corner (see
// CornerStats).
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
	mu      sync.Mutex
	entries map[string]*flight
	store   PersistentStore
	// corner holds the per-corner-tag counters (see CornerStats), fed by
	// every accessor request and the only place requests are counted.
	// Lazily allocated; empty until the first.
	corner map[string]*CornerStats
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
// build leases, the cache single-flights characterisation *between
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
	// Hits counts requests served an artefact from an existing entry; a
	// memoized failure served again is not a hit.
	Hits   int `json:"hits"`
	Misses int `json:"misses"` // requests that triggered a build
	// DiskHits counts the misses that were then answered by the persistent
	// store instead of a fresh characterisation. Misses includes them: a
	// warm-disk run shows Misses == DiskHits, a cold run DiskHits == 0.
	DiskHits int `json:"disk_hits"`
}

// Stats snapshots the counters: the entries held, and the requests of
// every corner summed (see CornerStats). Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Entries: len(c.entries)}
	for _, st := range c.corner {
		s.Hits += st.Cache.Hits
		s.Misses += st.Cache.Misses
		s.DiskHits += st.Cache.DiskHits
	}
	return s
}

// CornerStats is one corner's slice of a cache's counters, the shape of a
// /statsz corners.<tag> block.
type CornerStats struct {
	// Cache attributes cache traffic to the corner of the requested card;
	// Entries counts the builds this cache started for the corner.
	Cache CacheStats `json:"cache"`
	// Sim adds up the solver work of the builds this cache ran for the
	// corner, failed and cancelled ones included. Memory hits and store
	// hits add nothing.
	Sim sim.Counters `json:"sim"`
}

// CornerStats snapshots the per-corner counters, keyed by the corner tag of
// the card each artefact was requested for (tech.Tech.CornerTag: "nominal"
// or the corner name). Safe on a nil cache.
func (c *Cache) CornerStats() map[string]CornerStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CornerStats, len(c.corner))
	for tag, st := range c.corner {
		out[tag] = *st
	}
	return out
}

// noteCorner folds one request's outcome, and the work of the build it
// ran, into the per-corner counters.
func (c *Cache) noteCorner(tag string, built, diskHit bool, work sim.Counters) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.corner == nil {
		c.corner = map[string]*CornerStats{}
	}
	st := c.corner[tag]
	if st == nil {
		st = &CornerStats{}
		c.corner[tag] = st
	}
	switch {
	case built:
		st.Cache.Entries++
		st.Cache.Misses++
		if diskHit {
			st.Cache.DiskHits++
		}
		st.Sim = st.Sim.Add(work)
	default:
		st.Cache.Hits++
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

// do returns the memoized value for key, building it at most once. If the
// key is being built by another goroutine, do waits for that build rather
// than starting a second one. Build errors are memoized too, so a failing
// configuration fails identically for every requester.
//
// Cancellation is never memoized: a build abandoned because its ctx was
// cancelled is forgotten, so the next requester (whose context may well be
// alive) re-characterises instead of inheriting a stale context.Canceled.
// Waiters blocked on another goroutine's build also honour their own ctx.
func (c *Cache) do(ctx context.Context, key string, build func() (any, error)) (any, error) {
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
			return f.val, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.entries[key] = f
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

// cellKey builds the in-memory key of an artefact of the given kind ("lc",
// "prop", "nrc", "thev") characterised on a cell configuration. The cell
// name embeds the drive strength, optsFP fingerprints the characterisation
// options so different qualities never alias, and the card keys by
// tech.Tech.Fingerprint — the same identity the persistent tier hashes —
// so corner-derived and nonlinear-cap cards never alias in memory either.
// The persistent tier derives its own content-addressed key from the same
// configuration (plus the cell netlist and model version).
func cellKey(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) string {
	return kind + "|" + cl.Tech.Fingerprint() + "|" + cl.Name() + "|" + st.String() + "|" + pin + "|" + optsFP
}

// artefact is the build path every accessor shares: memory
// (single-flighted), then the persistent store, then build. A successful
// fresh build is written behind to the store; build errors and
// cancellations are never persisted. optsFP must fingerprint every option
// that shapes the result.
//
// It returns the solver work of the build this call ran and charges it to
// the card's corner: zero, and nothing charged, when the request was served
// from memory, from the store or by another goroutine's build. A nil cache
// just builds and charges nothing.
func (c *Cache) artefact(ctx context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string, build func() (any, sim.Counters, error)) (any, sim.Counters, error) {
	if c == nil {
		return build()
	}
	// built/diskHit/work are only written by this call's own closure: do
	// single-flights, so when another goroutine owns the build our closure
	// never runs and the request is attributed as a per-corner hit.
	built, diskHit := false, false
	var work sim.Counters
	v, err := c.do(ctx, cellKey(kind, cl, st, pin, optsFP), func() (any, error) {
		built = true
		s := c.getStore()
		if s != nil {
			if v, ok := s.Get(kind, cl, st, pin, optsFP); ok {
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
						diskHit = true
						return v, nil
					}
				} else if isCtxErr(lerr) {
					return nil, lerr
				}
			}
		}
		v, stats, err := build()
		work = stats
		if err == nil && s != nil {
			// Best-effort write-behind: a full disk or unwritable store
			// directory costs persistence, never the analysis.
			_ = s.Put(kind, cl, st, pin, optsFP, v)
		}
		return v, err
	})
	if err == nil || built {
		c.noteCorner(cl.Tech.CornerTag(), built, diskHit, work)
	}
	return v, work, err
}

// The seeding suffixes every artefact fingerprint ends in. They name the
// Newton seeding the characterisers always use — warm start for the DC
// load-curve sweep, warm start plus the transient predictor for prop
// tables and NRC curves — and are the suffixes stores written under the
// earlier opt-in -warm-start -predictor flags carry, so those entries stay
// reachable while cold-built entries (no suffix) are never served.
const (
	dcSeedFP        = ",warm"
	transientSeedFP = ",warm,pred"
)

// LoadCurve returns the memoized VCCS load-curve table for the cell
// configuration, characterising it on first use.
func (c *Cache) LoadCurve(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts LoadCurveOptions) (*LoadCurve, error) {
	lc, _, err := c.loadCurve(ctx, cl, st, pin, opts)
	return lc, err
}

// loadCurve is LoadCurve plus the solver work of the build this call ran.
func (c *Cache) loadCurve(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts LoadCurveOptions) (*LoadCurve, sim.Counters, error) {
	opts = opts.normalize()
	fp := fmt.Sprintf("%d,%d,%g", opts.NVin, opts.NVout, marginFrac) + dcSeedFP
	v, work, err := c.artefact(ctx, "lc", cl, st, pin, fp, func() (any, sim.Counters, error) {
		return characterizeLoadCurve(ctx, cl, st, pin, opts, true)
	})
	if err != nil {
		return nil, work, err
	}
	return v.(*LoadCurve), work, nil
}

// propStepFP names the prop probes' time axis: the LTE-controlled
// adaptive steps of sim.Session.RunTransientAdaptive (DESIGN.md §21).
// Tables built on the fixed Dt grid carry no such segment, so a store
// written before the axis changed serves none of them.
const propStepFP = ",lte"

// PropTable returns the memoized propagation table for the cell
// configuration, characterising it on first use.
func (c *Cache) PropTable(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts PropOptions) (*PropTable, error) {
	pt, _, err := c.propTable(ctx, cl, st, pin, opts)
	return pt, err
}

// propTable is PropTable plus the solver work of the build this call ran.
func (c *Cache) propTable(ctx context.Context, cl *cell.Cell, st cell.State, pin string, opts PropOptions) (*PropTable, sim.Counters, error) {
	opts = opts.normalize(cl.Tech.VDD)
	fp := fmt.Sprintf("%v,%v,%v,%g", opts.Heights, opts.Widths, opts.Loads, opts.Dt) + transientSeedFP + propStepFP
	v, work, err := c.artefact(ctx, "prop", cl, st, pin, fp, func() (any, sim.Counters, error) {
		return characterizePropagation(ctx, cl, st, pin, opts, propSeeded)
	})
	if err != nil {
		return nil, work, err
	}
	return v.(*PropTable), work, nil
}

// NRCCurve returns the memoized Noise Rejection Curve of a receiver pin in
// the given quiet state, characterising it on first use.
func (c *Cache) NRCCurve(ctx context.Context, recv *cell.Cell, st cell.State, pin string, opts nrc.Options) (*nrc.Curve, error) {
	opts = opts.Normalized()
	fp := fmt.Sprintf("%v,%g,%g,%g,%g", opts.Widths, nrc.LoadCap, opts.FailFrac, opts.Tol, opts.Dt) + transientSeedFP
	v, _, err := c.artefact(ctx, "nrc", recv, st, pin, fp, func() (any, sim.Counters, error) {
		return nrc.Characterize(ctx, recv, st, pin, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*nrc.Curve), nil
}

// TheveninFit returns the memoized Thevenin model of the aggressor driver
// cl switching switchPin from fromState into a lumped load of loadCap
// farads (thevenin.Fit), fitting it on first use. The fingerprint covers
// the load and every fit option, so aggressors with distinct geometry never
// alias, while the repeated driver/load configurations of a design fit
// once.
func (c *Cache) TheveninFit(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts thevenin.FitOptions) (*thevenin.Driver, error) {
	v, _, err := c.artefact(ctx, "thev", cl, fromState, switchPin, opts.Fingerprint(loadCap), func() (any, sim.Counters, error) {
		return thevenin.Fit(ctx, cl, fromState, switchPin, loadCap, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*thevenin.Driver), nil
}

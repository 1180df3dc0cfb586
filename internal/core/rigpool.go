package core

import (
	"fmt"
	"strings"

	"stanoise/internal/cell"
)

// RigPool caches compiled simulator test benches — program/session pairs —
// across the clusters a single analysis worker processes (or, as a
// cluster's private pool, across one cluster's evaluations), keyed like
// charlib.Cache by the *topology class* of the bench (technology, cells by
// library name, states, pins and geometry) and the session's step rather
// than by cluster identity. Two clusters whose victim drivers share a cell
// configuration reuse one compiled driver-alone bench; re-analysing a
// design through the same analyzer reuses the golden benches of every
// cluster whose topology is unchanged. Only source waveforms and lumped
// loads are mutated between runs, so pooled reuse performs arithmetic
// identical to a freshly compiled bench.
//
// A RigPool is NOT safe for concurrent use: sessions are single-goroutine
// objects, so each analysis worker owns its own pool (internal/sna hands
// one to every worker goroutine). Pool keys assume cells come from the
// cell library constructors, where equal names imply equal netlists; deep
// mutation of a shared *cell.Cell or *interconnect.Bus value is not
// detected.
//
// The pool is bounded — by entry count and, optionally, by estimated
// resident bytes (see RigPoolLimits) — evicting the least recently used
// bench first. Golden benches key on the full cluster topology and are
// therefore near-unique across a heterogeneous design — without a bound, a
// 10k-net run would retain 10k dense-matrix sessions for the analyzer's
// lifetime. The bound keeps the pool at working-set size: driver-class
// benches (small key space, high reuse) stay resident, and golden benches
// survive exactly long enough for re-evaluation and re-analysis of recent
// clusters. Long-lived holders (an analysis server above all) size pools
// in bytes and drop every bench explicitly with Invalidate when the
// underlying libraries change.
type RigPool struct {
	rigs   map[string]*pooledEntry
	limits RigPoolLimits
	seq    int64
	hits   int
	misses int
}

// pooledEntry pairs a bench with its last-use stamp for LRU eviction.
type pooledEntry struct {
	rig     *simRig
	lastUse int64
}

// RigPoolLimits bounds a pool's resident compiled benches. The zero value
// selects the defaults; both bounds are enforced together, LRU-first, and
// the most recently inserted bench is never evicted (a bench larger than
// MaxBytes on its own is kept until the next insertion displaces it —
// refusing it outright would force recompilation on every evaluation).
type RigPoolLimits struct {
	// MaxRigs bounds the number of resident benches; <= 0 selects the
	// default of 64. A bench is a Program plus a Session (dense size×size
	// matrices, an LU workspace and result buffers) — roughly hundreds of
	// kilobytes at cluster scale — so the default keeps a worker's pool in
	// the tens of megabytes worst-case while comfortably covering the
	// distinct driver classes plus the recently evaluated golden topologies
	// of a real design.
	MaxRigs int
	// MaxBytes additionally bounds the pool by the summed
	// sim.Session.MemoryBytes estimate of its benches; <= 0 disables the
	// byte bound. This is the long-lived-server knob: cluster sizes vary
	// wildly between requests, so a count bound alone cannot cap worst-case
	// memory.
	MaxBytes int64
}

// defaultMaxPoolRigs is the entry-count bound selected by zero
// RigPoolLimits; see RigPoolLimits.MaxRigs for the sizing rationale.
const defaultMaxPoolRigs = 64

func (l RigPoolLimits) normalize() RigPoolLimits {
	if l.MaxRigs <= 0 {
		l.MaxRigs = defaultMaxPoolRigs
	}
	return l
}

// NewRigPool returns an empty pool with default limits, ready for
// single-goroutine use.
func NewRigPool() *RigPool { return NewRigPoolWithLimits(RigPoolLimits{}) }

// NewRigPoolWithLimits returns an empty pool bounded by the given limits.
func NewRigPoolWithLimits(l RigPoolLimits) *RigPool {
	return &RigPool{rigs: map[string]*pooledEntry{}, limits: l.normalize()}
}

// lookup returns the pooled rig for key, building and memoizing it on the
// first request and evicting least-recently-used benches while either
// limit is exceeded. Build errors are not memoized: a failing topology is
// re-attempted (and fails identically) on the next request.
func (p *RigPool) lookup(key string, build func() (*simRig, error)) (*simRig, error) {
	p.seq++
	e, ok := p.rigs[key]
	if ok {
		p.hits++
		e.lastUse = p.seq
	} else {
		r, err := build()
		if err != nil {
			return nil, err
		}
		p.misses++
		e = &pooledEntry{rig: r, lastUse: p.seq}
		p.rigs[key] = e
	}
	p.evict()
	return e.rig, nil
}

// footprint sums the current byte estimate of every pooled bench. It is
// read from the benches each time, never cached: a bench grows after it is
// admitted — its session allocates the transient matrices and predictor
// ring on the first run, and a driver bench keeps its last result — so an
// estimate taken at admission would undercount.
func (p *RigPool) footprint() int64 {
	var b int64
	for _, e := range p.rigs {
		b += e.rig.memoryBytes()
	}
	return b
}

// evict removes least-recently-used benches until both limits hold,
// always sparing the entry touched by the current lookup (lastUse ==
// p.seq) so the bench about to be used cannot be evicted under it.
func (p *RigPool) evict() {
	bytes := p.footprint()
	for len(p.rigs) > 1 &&
		(len(p.rigs) > p.limits.MaxRigs || (p.limits.MaxBytes > 0 && bytes > p.limits.MaxBytes)) {
		var oldestKey string
		oldest := int64(1<<63 - 1)
		for k, e := range p.rigs {
			if e.lastUse < oldest && e.lastUse != p.seq {
				oldest, oldestKey = e.lastUse, k
			}
		}
		if oldestKey == "" {
			return
		}
		bytes -= p.rigs[oldestKey].rig.memoryBytes()
		delete(p.rigs, oldestKey)
	}
}

// Invalidate drops every pooled bench, returning how many were held. This
// is the explicit invalidation point for long-lived processes: compiled
// benches key on topology *classes* (cell names, geometry, options), so a
// process that mutates what a name means — reloading a cell library,
// editing a tech card in place — must invalidate its pools or pooled
// benches would keep simulating the old physics. Statistics survive.
func (p *RigPool) Invalidate() int {
	n := len(p.rigs)
	p.rigs = map[string]*pooledEntry{}
	return n
}

// Len returns the number of compiled benches held by the pool.
func (p *RigPool) Len() int { return len(p.rigs) }

// Bytes returns the summed memory estimate of the pooled benches as they
// stand now, grown by every run since they were admitted.
func (p *RigPool) Bytes() int64 { return p.footprint() }

// Stats reports pool effectiveness: hits counts bench compilations avoided
// by reuse, misses counts benches actually compiled.
func (p *RigPool) Stats() (hits, misses int) { return p.hits, p.misses }

// programOverhead is the byte estimate of a compiled program's stamp
// plans, a small constant beside its session's dense solver state.
const programOverhead = 4096

// memoryBytes estimates a bench's resident footprint: the session's dense
// solver state and the result storage the bench keeps between runs (the
// driver bench's every-node record) dominate; the compiled program is a
// small constant on top.
func (r *simRig) memoryBytes() int64 {
	if r == nil || r.sess == nil {
		return programOverhead
	}
	return r.sess.MemoryBytes() + r.res.MemoryBytes() + programOverhead
}

// UseRigPool attaches a pool to the cluster: subsequent evaluations cache
// their compiled benches in it, sharing them with every other cluster
// using the same pool. Without one, a cluster opens a private pool on its
// first bench. Attach before the first evaluation; the pool must be owned
// by the same goroutine that evaluates the cluster.
func (c *Cluster) UseRigPool(p *RigPool) {
	c.rigMu.Lock()
	c.rigPool = p
	c.rigMu.Unlock()
}

// cellClass names a cell's topology class: the library name embeds kind and
// drive strength, which (per technology) determines the transistor netlist.
func cellClass(cl *cell.Cell) string {
	if cl == nil {
		return "nil"
	}
	return cl.Name()
}

// topologyKey renders everything the golden bench bakes in besides source
// waveforms: the technology, the bus by its full geometry (SpacingFactor
// included, since coupling capacitance depends on it), and the victim and
// aggressor specs — cells by library name, states, pins, lines and
// receivers. Appending an aggressor or re-pointing a spec between
// evaluations therefore compiles a new bench instead of reusing a stale
// netlist, while clusters built independently from identical specs key
// identically and share one.
func (c *Cluster) topologyKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tech=%s|bus=%s,%d", c.Tech.Fingerprint(), c.Bus.Layer, c.Bus.Segments)
	for i := range c.Bus.Lines {
		ln := &c.Bus.Lines[i]
		fmt.Fprintf(&b, ",%s:%.17g:%.17g", ln.Name, ln.LengthUm, ln.SpacingFactor)
	}
	v := &c.Victim
	fmt.Fprintf(&b, "|vic=%s,%s,%s,%d,%s,%s",
		cellClass(v.Cell), v.State.String(), v.NoisyPin, v.Line, cellClass(v.Receiver), v.ReceiverPin)
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		fmt.Fprintf(&b, "|agg=%s,%s,%s,%d,%s,%s",
			cellClass(a.Cell), a.FromState.String(), a.SwitchPin, a.Line, cellClass(a.Receiver), a.ReceiverPin)
	}
	return b.String()
}

// driverClassKey identifies the topology class of the driver-alone bench,
// which depends only on the technology and the victim cell configuration —
// not on the bus, aggressors or cluster identity. This is where pooling
// pays off across clusters: every victim sharing a cell configuration (the
// common case in a real design) shares one compiled bench.
//
// Both pool keys carry the full tech.Tech.Fingerprint: corner-derived and
// nonlinear-cap cards share the base card's Name (fs, sf and Monte Carlo
// corners share its VDD too) but compile to different device stamps, so
// anything less would let a shared pool serve one card's bench to another.
func (c *Cluster) driverClassKey() string {
	v := &c.Victim
	return fmt.Sprintf("%s|vic=%s,%s,%s",
		c.Tech.Fingerprint(), cellClass(v.Cell), v.State.String(), v.NoisyPin)
}

// pooledRig routes a rig lookup through the cluster's pool under a key of
// the bench kind, its session's step dt and its topology, opening a
// private pool when none is attached. Everything else a session fixes —
// the golden bench's quiet-level guesses — is a function of the topology,
// so a different step is the only reason to compile a new bench for one
// topology. The caller must hold c.rigMu.
func (c *Cluster) pooledRig(kind, classKey string, dt float64, build func() (*simRig, error)) (*simRig, error) {
	if c.rigPool == nil {
		c.rigPool = NewRigPool()
	}
	key := fmt.Sprintf("%s#%.17g#%s", kind, dt, classKey)
	return c.rigPool.lookup(key, build)
}

package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"stanoise/internal/cell"
)

// RigPool caches compiled simulator test benches — program/session pairs —
// keyed like charlib.Cache by the *topology class* of the bench
// (technology, cells by library name, states, pins and geometry) and the
// session's step rather than by cluster identity. Two clusters whose
// victim drivers share a cell configuration reuse one compiled
// driver-alone bench; re-analysing a design reuses the golden benches of
// every cluster whose topology is unchanged. Only source waveforms and
// lumped loads are mutated between runs, so pooled reuse performs
// arithmetic identical to a freshly compiled bench.
//
// A RigPool is safe for concurrent use. Sessions are single-goroutine
// objects, so the pool lends each bench to one run at a time and takes it
// back when the run ends: a lend takes an idle bench of its key, or
// compiles a new one when every bench of the key is out on a run. All
// workers of an analyzer, and all analyzers of a server, therefore share
// one pool. Pool keys assume cells come from the cell library
// constructors, where equal names imply equal netlists; deep mutation of a
// shared *cell.Cell or *interconnect.Bus value is not detected.
//
// The idle benches are bounded — by count and, optionally, by estimated
// resident bytes (see RigPoolLimits) — evicting the least recently used
// bench first. Golden benches key on the full cluster topology and are
// therefore near-unique across a heterogeneous design — without a bound, a
// 10k-net run would retain 10k dense-matrix sessions for the pool's
// lifetime. The bound keeps the pool at working-set size: driver-class
// benches (small key space, high reuse) stay resident, and golden benches
// survive exactly long enough for re-evaluation and re-analysis of recent
// clusters. Long-lived holders (an analysis server above all) size the
// pool in bytes and drop every bench explicitly with Invalidate when the
// underlying libraries change.
type RigPool struct {
	limits RigPoolLimits

	mu sync.Mutex
	// idle holds the benches no run has out, least recently given back
	// first.
	idle []*simRig
	// gen counts Invalidate calls; a bench lent under an older generation
	// is dropped when it is given back.
	gen          int
	hits, misses int
}

// RigPoolLimits bounds a pool's idle compiled benches. The zero value
// selects the defaults; both bounds are enforced together, LRU-first, and
// the bench just given back is never evicted (a bench larger than
// MaxBytes on its own is kept until the next give-back displaces it —
// refusing it outright would force recompilation on every evaluation).
type RigPoolLimits struct {
	// MaxRigs bounds the number of idle benches; <= 0 selects the default
	// of 64. A bench is a Program plus a Session (dense size×size
	// matrices, an LU workspace and result buffers) — roughly hundreds of
	// kilobytes at cluster scale — so the default keeps a pool in the tens
	// of megabytes worst-case while comfortably covering the distinct
	// driver classes plus the recently evaluated golden topologies of a
	// real design.
	MaxRigs int
	// MaxBytes additionally bounds the pool by the summed
	// sim.Session.MemoryBytes estimate of its idle benches; <= 0 disables
	// the byte bound. This is the long-lived-server knob: cluster sizes
	// vary wildly between requests, so a count bound alone cannot cap
	// worst-case memory.
	MaxBytes int64
}

// defaultMaxPoolRigs is the count bound selected by zero RigPoolLimits;
// see RigPoolLimits.MaxRigs for the sizing rationale.
const defaultMaxPoolRigs = 64

// NewRigPool returns an empty pool bounded by the given limits (the zero
// value selects the defaults).
func NewRigPool(l RigPoolLimits) *RigPool {
	if l.MaxRigs <= 0 {
		l.MaxRigs = defaultMaxPoolRigs
	}
	return &RigPool{limits: l}
}

// lend takes an idle bench of key out of the pool for one run — the most
// recently given back, a hit — or, when none is idle, counts a miss and
// compiles one with build outside the lock. Build errors are not
// memoized: a failing topology is re-attempted (and fails identically) on
// the next lend. The caller gives the bench back when its run ends.
func (p *RigPool) lend(key string, build func() (*simRig, error)) (*simRig, error) {
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if r := p.idle[i]; r.key == key {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.hits++
			p.mu.Unlock()
			return r, nil
		}
	}
	p.misses++
	gen := p.gen
	p.mu.Unlock()
	r, err := build()
	if err != nil {
		return nil, err
	}
	r.key, r.gen = key, gen
	return r, nil
}

// giveBack re-admits a bench after its run and evicts least recently used
// idle benches while either limit is exceeded, sparing the bench just
// returned. A bench lent before the last Invalidate is dropped instead.
func (p *RigPool) giveBack(r *simRig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.gen != p.gen {
		return
	}
	p.idle = append(p.idle, r)
	bytes := p.footprint()
	for len(p.idle) > 1 &&
		(len(p.idle) > p.limits.MaxRigs || (p.limits.MaxBytes > 0 && bytes > p.limits.MaxBytes)) {
		bytes -= p.idle[0].memoryBytes()
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// footprint sums the current byte estimate of every idle bench; the
// caller holds p.mu. It is read from the benches each time, never cached:
// a bench grows after it is admitted — its session allocates the
// transient matrices and predictor ring on the first run, and a driver
// bench keeps its last result — so an estimate taken at admission would
// undercount.
func (p *RigPool) footprint() int64 {
	var b int64
	for _, r := range p.idle {
		b += r.memoryBytes()
	}
	return b
}

// Invalidate drops every idle bench, returning how many it dropped, and
// marks every bench out on a run to be dropped when it is given back.
// This is the explicit invalidation point for long-lived processes:
// compiled benches key on topology *classes* (cell names, geometry,
// options), so a process that mutates what a name means — reloading a
// cell library, editing a tech card in place — must invalidate its pool
// or pooled benches would keep simulating the old physics. Statistics
// survive.
func (p *RigPool) Invalidate() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	p.idle = nil
	p.gen++
	return n
}

// Len returns the number of idle compiled benches held by the pool.
func (p *RigPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Bytes returns the summed memory estimate of the idle benches as they
// stand now, grown by every run since they were compiled.
func (p *RigPool) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.footprint()
}

// Stats reports pool effectiveness, counted when benches are lent: hits
// counts bench compilations avoided by reuse, misses counts lends that
// found no idle bench of their key and compiled one.
func (p *RigPool) Stats() (hits, misses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

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

// UseRigPool attaches a pool to the cluster: subsequent evaluations
// borrow their compiled benches from it, sharing them with every other
// cluster using the same pool. Without one, a cluster opens a private pool
// on its first bench. Attach before the first evaluation.
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

// lendRig lends a bench from the cluster's pool under a key of the bench
// kind, its session's step dt and its topology, opening a private pool
// when none is attached. Everything else a session fixes — the golden
// bench's quiet-level guesses — is a function of the topology, so a
// different step is the only reason to compile a new bench for one
// topology. The caller gives the bench back to the returned pool when its
// run ends.
func (c *Cluster) lendRig(kind, classKey string, dt float64, build func() (*simRig, error)) (*RigPool, *simRig, error) {
	c.rigMu.Lock()
	if c.rigPool == nil {
		c.rigPool = NewRigPool(RigPoolLimits{})
	}
	p := c.rigPool
	c.rigMu.Unlock()
	r, err := p.lend(fmt.Sprintf("%s#%.17g#%s", kind, dt, classKey), build)
	return p, r, err
}

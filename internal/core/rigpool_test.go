package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// lookup lends the bench of key and gives it straight back — one run's
// whole borrow — for tests that drive the pool without a simulator.
func (p *RigPool) lookup(key string, build func() (*simRig, error)) (*simRig, error) {
	r, err := p.lend(key, build)
	if err == nil {
		p.giveBack(r)
	}
	return r, err
}

// rigs maps the pool key of every idle bench to the bench.
func (p *RigPool) rigs() map[string]*simRig {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := map[string]*simRig{}
	for _, r := range p.idle {
		m[r.key] = r
	}
	return m
}

// TestRigPoolSharesDriverBenches asserts the cross-cluster payoff of the
// worker rig pool: two distinct clusters whose victims share a cell
// configuration (the common case in a real design) compile the
// driver-alone bench once, and the shared-pool response is bit-identical
// to that of a cluster on its own private pool.
func TestRigPoolSharesDriverBenches(t *testing.T) {
	ctx := context.Background()
	models := &Models{LumpedCL: 60e-15}
	opts := fastEvalOptions()

	ref, err := fastCluster(t, 1).DriverAloneResponse(ctx, models, opts)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewRigPool(RigPoolLimits{})
	a, b := fastCluster(t, 1), fastCluster(t, 2) // same victim config, different clusters
	a.UseRigPool(pool)
	b.UseRigPool(pool)
	wa, err := a.DriverAloneResponse(ctx, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.DriverAloneResponse(ctx, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := pool.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("pool stats hits=%d misses=%d, want 1 hit (shared bench) and 1 miss", hits, misses)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d rigs, want 1", pool.Len())
	}
	for i := range ref.V {
		if wa.V[i] != ref.V[i] || wb.V[i] != ref.V[i] {
			t.Fatalf("pooled response diverged from unpooled at step %d: %v / %v vs %v",
				i, wa.V[i], wb.V[i], ref.V[i])
		}
	}
}

// TestRigPoolGoldenMatchesUnpooled asserts that sharing a pool changes
// nothing about the golden result against a cluster with none attached
// (which opens a private one): the compiled netlist is keyed by the full
// topology class, only waveforms are re-pointed per evaluation, and a
// re-evaluation through the pool reuses the bench.
func TestRigPoolGoldenMatchesUnpooled(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()

	ref, err := fastCluster(t, 1).Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewRigPool(RigPoolLimits{})
	a, b := fastCluster(t, 1), fastCluster(t, 1) // identical topology
	a.UseRigPool(pool)
	b.UseRigPool(pool)
	ea, err := a.Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := pool.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("pool stats hits=%d misses=%d, want 1 hit and 1 miss", hits, misses)
	}
	if ea.Metrics.Peak != ref.Metrics.Peak || eb.Metrics.Peak != ref.Metrics.Peak {
		t.Fatalf("pooled golden peaks %v / %v diverged from unpooled %v",
			ea.Metrics.Peak, eb.Metrics.Peak, ref.Metrics.Peak)
	}
	for i := range ref.DP.V {
		if ea.DP.V[i] != ref.DP.V[i] || eb.DP.V[i] != ref.DP.V[i] {
			t.Fatalf("pooled golden waveform diverged at step %d", i)
		}
	}
	// Pooled golden benches outlive their evaluations, so they must not
	// keep the per-node transient record of their last run.
	for _, r := range pool.rigs() {
		if r.res.Times != nil {
			t.Errorf("pooled golden bench retains its last result (%d samples)", len(r.res.Times))
		}
	}
}

// TestRigPoolEvictsLeastRecentlyUsed asserts the pool bound: filling it
// past defaultMaxPoolRigs evicts the least recently used bench (so design-sized
// runs cannot accumulate unbounded dense-matrix sessions), while a
// recently touched bench survives.
func TestRigPoolEvictsLeastRecentlyUsed(t *testing.T) {
	p := NewRigPool(RigPoolLimits{})
	build := func() (*simRig, error) { return &simRig{}, nil }
	for i := 0; i < defaultMaxPoolRigs; i++ {
		if _, err := p.lookup(fmt.Sprintf("k%d", i), build); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != defaultMaxPoolRigs {
		t.Fatalf("pool holds %d, want %d", p.Len(), defaultMaxPoolRigs)
	}
	// Touch k0 so k1 becomes the LRU, then overflow.
	if _, err := p.lookup("k0", build); err != nil {
		t.Fatal(err)
	}
	if _, err := p.lookup("overflow", build); err != nil {
		t.Fatal(err)
	}
	if p.Len() != defaultMaxPoolRigs {
		t.Fatalf("pool grew past its bound: %d", p.Len())
	}
	hitsBefore, _ := p.Stats()
	if _, err := p.lookup("k0", build); err != nil { // survived the eviction
		t.Fatal(err)
	}
	if hits, _ := p.Stats(); hits != hitsBefore+1 {
		t.Fatal("recently used bench was evicted")
	}
	if _, err := p.lookup("k1", build); err != nil { // the LRU: evicted, rebuilt
		t.Fatal(err)
	}
	if _, misses := p.Stats(); misses != defaultMaxPoolRigs+2 {
		t.Fatalf("misses = %d, want %d (k1 must have been evicted and rebuilt)", misses, defaultMaxPoolRigs+2)
	}
}

// TestRigPoolByteBound asserts the byte-based retention limit of
// RigPoolLimits.MaxBytes: benches are admitted, then least-recently-used
// ones are evicted until the summed sim.Session.MemoryBytes estimate fits,
// and the bench of the current lookup is never evicted under the caller.
func TestRigPoolByteBound(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()

	// Measure one real compiled golden bench so the limit is set in terms
	// of actual session footprints rather than magic numbers.
	probe := NewRigPool(RigPoolLimits{})
	c := fastCluster(t, 1)
	c.UseRigPool(probe)
	if _, err := c.Evaluate(ctx, Golden, nil, opts); err != nil {
		t.Fatal(err)
	}
	per := probe.Bytes()
	if per <= 0 {
		t.Fatalf("bench byte estimate %d, want > 0", per)
	}

	// A pool that can hold two benches of that size but not three.
	p := NewRigPool(RigPoolLimits{MaxBytes: 2*per + per/2})
	for i := 1; i <= 3; i++ {
		cl := fastCluster(t, i) // distinct aggressor counts -> distinct golden topologies
		cl.UseRigPool(p)
		if _, err := cl.Evaluate(ctx, Golden, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() >= 3 {
		t.Fatalf("pool holds all %d benches (%d bytes); byte bound %d never evicted", p.Len(), p.Bytes(), 2*per+per/2)
	}
	// Either the bound holds, or eviction ran all the way down to the one
	// bench of the current lookup, which is never evicted under the caller
	// even when it alone exceeds the bound.
	if p.Bytes() > 2*per+per/2 && p.Len() != 1 {
		t.Fatalf("pool bytes %d exceed the bound %d with %d benches resident", p.Bytes(), 2*per+per/2, p.Len())
	}

	// A single oversized bench must still be admitted (and used), not
	// rejected into a compile-every-time loop.
	tiny := NewRigPool(RigPoolLimits{MaxBytes: 1})
	cl := fastCluster(t, 1)
	cl.UseRigPool(tiny)
	if _, err := cl.Evaluate(ctx, Golden, nil, opts); err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 1 {
		t.Fatalf("oversized bench not retained: pool holds %d", tiny.Len())
	}
}

// TestRigPoolBytesTrackGrownBenches asserts that the byte bound counts
// benches as they stand, not as they were admitted: after a golden and a
// driver-alone evaluation through one pool, Bytes equals the sum of the
// pooled benches' current footprints — the transient matrices their
// sessions allocated on the first run and the driver bench's retained
// every-node result included.
func TestRigPoolBytesTrackGrownBenches(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()
	pool := NewRigPool(RigPoolLimits{})
	c := fastCluster(t, 1)
	c.UseRigPool(pool)
	if _, err := c.Evaluate(ctx, Golden, nil, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriverAloneResponse(ctx, &Models{LumpedCL: 60e-15}, opts); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d benches, want the golden and the driver bench", pool.Len())
	}
	var want int64
	for key, r := range pool.rigs() {
		want += r.sess.MemoryBytes() + r.res.MemoryBytes() + programOverhead
		if strings.HasPrefix(key, "driver#") {
			// The driver bench keeps its last result: the time axis plus
			// every node series.
			floor := int64(8 * r.res.Steps() * (1 + r.prog.Circuit().NumNodes()))
			if got := r.res.MemoryBytes(); got < floor {
				t.Errorf("driver result counted as %d bytes, want ≥ %d", got, floor)
			}
		}
	}
	if got := pool.Bytes(); got != want {
		t.Errorf("pool.Bytes() = %d, want %d: the pooled benches' current footprint", got, want)
	}
}

// TestRigPoolInvalidate asserts the explicit invalidation point: every
// bench is dropped, byte accounting returns to zero, and the next lookup
// recompiles — the contract a long-lived server relies on after a library
// reload.
func TestRigPoolInvalidate(t *testing.T) {
	p := NewRigPool(RigPoolLimits{})
	build := func() (*simRig, error) { return &simRig{}, nil }
	for i := 0; i < 5; i++ {
		if _, err := p.lookup(fmt.Sprintf("k%d", i), build); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Invalidate(); n != 5 {
		t.Fatalf("Invalidate dropped %d benches, want 5", n)
	}
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Fatalf("pool not empty after Invalidate: len=%d bytes=%d", p.Len(), p.Bytes())
	}
	if _, err := p.lookup("k0", build); err != nil {
		t.Fatal(err)
	}
	if _, misses := p.Stats(); misses != 6 {
		t.Fatalf("misses = %d, want 6 (k0 must recompile after invalidation)", misses)
	}
}

// TestRigPoolInvalidateDropsLentBenches asserts that Invalidate reaches a
// bench out on a run: given back after the drop, it is not re-admitted,
// and the next lend of its key compiles afresh — so a server invalidated
// mid-request keeps none of that request's benches.
func TestRigPoolInvalidateDropsLentBenches(t *testing.T) {
	p := NewRigPool(RigPoolLimits{})
	build := func() (*simRig, error) { return &simRig{}, nil }
	r, err := p.lend("k", build)
	if err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	p.giveBack(r)
	if p.Len() != 0 {
		t.Fatalf("pool holds %d benches after invalidating a lent one, want 0", p.Len())
	}
	if _, err := p.lookup("k", build); err != nil {
		t.Fatal(err)
	}
	if hits, misses := p.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want the lend after Invalidate to miss", hits, misses)
	}
}

// TestRigPoolConcurrentLends drives one small pool from several goroutines
// lending and giving back a few keys (run it under -race): no bench is
// ever out on two runs at once, every lend is counted once as a hit or a
// miss, and the idle benches end within the count bound.
func TestRigPoolConcurrentLends(t *testing.T) {
	const workers, lends = 4, 200
	keys := []string{"a", "b", "c"}
	p := NewRigPool(RigPoolLimits{MaxRigs: 2})
	build := func() (*simRig, error) { return &simRig{}, nil }
	var (
		mu    sync.Mutex
		out   = map[*simRig]bool{}
		errs  = make(chan error, workers)
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < lends; i++ {
				key := keys[(w+i)%len(keys)]
				r, err := p.lend(key, build)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				twice := out[r]
				out[r] = true
				mu.Unlock()
				if twice || r.key != key {
					errs <- fmt.Errorf("bench %p (key %q) lent for %q: out on another run or of another key", r, r.key, key)
					return
				}
				// The run: an unsynchronised write the race detector
				// flags if another goroutine holds the same bench.
				r.res.Times = append(r.res.Times[:0], float64(i))
				runtime.Gosched() // let other goroutines lend while this bench is out
				mu.Lock()
				delete(out, r)
				mu.Unlock()
				p.giveBack(r)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits, misses := p.Stats(); hits+misses != workers*lends {
		t.Fatalf("hits %d + misses %d, want %d lends", hits, misses, workers*lends)
	}
	if n := p.Len(); n > 2 {
		t.Fatalf("pool holds %d idle benches, want ≤ MaxRigs 2", n)
	}
}

// TestRigPoolDistinguishesTopologies asserts pooled benches never alias
// across genuinely different topology classes: a cluster with a different
// victim state (and so different quiet source levels baked into the
// netlist) must compile its own bench.
func TestRigPoolDistinguishesTopologies(t *testing.T) {
	ctx := context.Background()
	models := &Models{LumpedCL: 60e-15}
	opts := fastEvalOptions()

	pool := NewRigPool(RigPoolLimits{})
	a := fastCluster(t, 1)
	a.UseRigPool(pool)
	if _, err := a.DriverAloneResponse(ctx, models, opts); err != nil {
		t.Fatal(err)
	}
	b := fastCluster(t, 1)
	st := b.Victim.State.Clone()
	st["A"] = !st["A"] // different quiet state -> different DC sources
	// Keep the state electrically valid for the bench: NAND2 with the
	// other input low holds its output high either way.
	b.Victim.State = st
	b.UseRigPool(pool)
	if _, err := b.DriverAloneResponse(ctx, models, opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := pool.Stats(); misses != 2 || hits != 0 {
		t.Fatalf("pool stats hits=%d misses=%d, want 2 misses (distinct topologies)", hits, misses)
	}
}

// TestPrivatePoolFollowsSpecChanges pins the bench cache of a cluster with
// no pool attached: its private pool keys golden benches by topology, so
// appending an aggressor between evaluations compiles a new bench that
// matches a freshly built two-aggressor cluster bit for bit, and dropping
// it again reuses the first bench with the first evaluation's bits.
func TestPrivatePoolFollowsSpecChanges(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()
	golden := func(c *Cluster) []float64 {
		t.Helper()
		ev, err := c.Evaluate(ctx, Golden, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ev.DP.V
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}

	c := fastCluster(t, 2)
	both := c.Aggressors
	c.Aggressors = both[:1]
	one := golden(c)
	c.Aggressors = both
	same("appended aggressor", golden(c), golden(fastCluster(t, 2)))
	c.Aggressors = both[:1]
	same("dropped aggressor", golden(c), one)
	if hits, misses := c.rigPool.Stats(); hits != 1 || misses != 2 {
		t.Errorf("private pool hits=%d misses=%d, want 1 hit and 2 misses", hits, misses)
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// seededDesign is sna.GenerateDesign with its continuous quantities
// jittered by the seed: wire lengths, spacings, aggressor slews, glitch
// heights and switching windows each move by at most one small step and
// stay inside the generator's own ranges. The cell-variant cycle is left
// alone, so the design shares characterisation artefacts the way a real
// one does. The design goes through JSON and sna.ParseDesign, as a file
// read by snacheck would, which validates it.
func seededDesign(name string, n int, seed uint64) (*sna.Design, error) {
	d := sna.GenerateDesign(name, n)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	step := func(v, by, lo, hi float64) float64 {
		return math.Min(hi, math.Max(lo, v+by*float64(rng.IntN(3)-1)))
	}
	for i := range d.Clusters {
		cs := &d.Clusters[i]
		cs.Victim.LengthUm = step(cs.Victim.LengthUm, 25, 200, 500)
		if cs.Victim.GlitchHeightV > 0 {
			cs.Victim.GlitchHeightV = step(cs.Victim.GlitchHeightV, 0.05, 0.4, 0.6)
		}
		// One shift for all of a cluster's windows keeps its mutex and
		// implication pairs exactly as feasible as the generator made them.
		shift := 20 * float64(rng.IntN(3)-1)
		for j := range cs.Aggressors {
			a := &cs.Aggressors[j]
			a.LengthUm = cs.Victim.LengthUm
			a.SlewPs = step(a.SlewPs, 10, 60, 100)
			a.SpacingFactor = step(a.SpacingFactor, 0.25, 1, 2)
			if a.Window != nil {
				a.Window.EarlyPs += shift
				a.Window.LatePs += shift
			}
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return sna.ParseDesign(&buf)
}

// canonicalDesign is the unjittered generated design the accuracy metric
// is computed on. It does not depend on the seed, so peak_err_max_pct
// changes only when the program's numbers do.
func canonicalDesign(n int) *sna.Design { return sna.GenerateDesign("reference", n) }

// digestReports hashes a run's reports without their wall-clock fields.
func digestReports(reps []sna.NetReport) (string, error) {
	clean := append([]sna.NetReport(nil), reps...)
	for i := range clean {
		clean[i].ClearTiming()
	}
	b, err := json.Marshal(clean)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// peakErrPct is the paper's accuracy claim C1 on a design: the largest
// |macromodel − golden| / golden receiver noise peak over its nets, with
// alignment off, in percent. It is computed after the timed phase and is
// never timed.
func peakErrPct(ctx context.Context, d *sna.Design, corner tech.Corner) (float64, error) {
	peaks := func(m core.Method) (map[string]float64, error) {
		reps, err := sna.NewAnalyzer(d, sna.Options{Method: m, Workers: 2, Corner: corner}).Analyze(ctx)
		if err != nil {
			return nil, fmt.Errorf("accuracy (%s): %w", m, err)
		}
		out := map[string]float64{}
		for _, r := range reps {
			out[r.Cluster] = r.PeakV
		}
		return out, nil
	}
	macro, err := peaks(core.Macromodel)
	if err != nil {
		return 0, err
	}
	golden, err := peaks(core.Golden)
	if err != nil {
		return 0, err
	}
	return maxPeakErr(macro, golden)
}

// maxPeakErr compares macromodel and golden peaks per cluster.
func maxPeakErr(macro, golden map[string]float64) (float64, error) {
	if len(macro) == 0 || len(macro) != len(golden) {
		return 0, fmt.Errorf("accuracy: %d macromodel against %d golden reports", len(macro), len(golden))
	}
	worst := 0.0
	for name, g := range golden {
		m, ok := macro[name]
		if !ok || g <= 0 {
			return 0, fmt.Errorf("accuracy: cluster %s has no comparable peaks (%v, %v)", name, m, g)
		}
		worst = math.Max(worst, math.Abs(m-g)/g*100)
	}
	return worst, nil
}

// runDesignPessimistic: the snacheck defaults (macromodel, alignment on,
// feasibility off) on the seeded design, each pass with a fresh in-memory
// cache and no store, like snacheck without -cache-dir. The reduced-order
// engine (core, and linalg under it) does almost all the work;
// characterisation is a few percent.
func runDesignPessimistic(ctx context.Context, e *env) error { return runDesign(ctx, e, false) }

// runDesignWarmstore: the same design in realistic mode (feasibility on)
// against a store filled during set-up, each pass with a fresh analyzer
// and memory cache. It runs no transistor-level sweep (asserted) and ~7×
// fewer engine runs, which moves the work to charstore reads, feas and the
// per-cluster overhead of sna. It bypasses charlib/sim characterisation,
// so a characterisation speed-up must show no change here.
func runDesignWarmstore(ctx context.Context, e *env) error { return runDesign(ctx, e, true) }

func runDesign(ctx context.Context, e *env, warm bool) error {
	sc := e.cfg.scale
	workers := 2
	if e.rec != nil {
		// One worker, so a traced pass analyses one cluster at a time and
		// every span and counter belongs to that cluster.
		workers = 1
	}
	opts := sna.Options{Method: core.Macromodel, Align: true, Feasibility: warm, Workers: workers}

	var (
		d        *sna.Design
		storeDir string
	)
	defer func() {
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
	}()
	err := e.setup(func() error {
		var err error
		if d, err = seededDesign("bench", sc.clusters, e.cfg.seed); err != nil {
			return err
		}
		if !warm {
			// A process's first analysis: four clusters on a fresh cache.
			head := *d
			head.Clusters = d.Clusters[:min(4, len(d.Clusters))]
			_, err = sna.NewAnalyzer(&head, opts).Analyze(ctx)
			return err
		}
		// What a first `snacheck -cache-dir` run does: characterise the
		// whole design into a fresh store.
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		if storeDir, err = e.tempDir("store"); err != nil {
			return err
		}
		store, err := charstore.Open(storeDir)
		if err != nil {
			return err
		}
		o := opts
		o.Store = store
		_, err = sna.NewAnalyzer(d, o).Analyze(ctx)
		return err
	})
	if err != nil {
		return err
	}

	var want string
	glitched := 0
	for _, cs := range d.Clusters {
		if cs.Victim.GlitchHeightV > 0 {
			glitched++
		}
	}
	if warm {
		// The warm passes must reproduce a cold analysis with no store.
		reps, err := sna.NewAnalyzer(d, opts).Analyze(ctx)
		if err != nil {
			return fmt.Errorf("cold reference analysis: %w", err)
		}
		if want, err = digestReports(reps); err != nil {
			return err
		}
	}

	e.beginTimed()
	e.timed(ctx, sc.minDesignPasses, func(i int, traced bool) (pass, error) {
		p := pass{items: len(d.Clusters), workers: workers}
		o := opts
		var gate *tracedGate
		if e.rec != nil {
			gate = newTracedGate(workers, e.rec)
			o.Gate = gate
		}
		endPass := e.rec.begin("pass", "pass")
		t0 := time.Now()
		var probe *storeProbe
		if warm {
			store, err := charstore.Open(storeDir)
			if err != nil {
				return p, err
			}
			probe = newStoreProbe(store, e.rec)
			o.Store = probe
		}
		before := sim.Snapshot()
		an := sna.NewAnalyzer(d, o)
		reps, err := an.Analyze(ctx)
		p.wall = time.Since(t0)
		solves := sim.Snapshot().Sub(before).Total()
		endPass(map[string]any{"pass": i, "traced": traced})
		if err != nil {
			return p, err
		}

		for k := range reps {
			p.latMs = append(p.latMs, float64(reps[k].Timing.Total().Nanoseconds())/1e6)
		}
		if gate != nil {
			starts := gate.takeStarts()
			for k := range reps {
				if traced && k < len(starts) {
					stageSpans(e.rec, "stage", starts[k], &reps[k])
				}
			}
		}
		cs := an.CacheStats()
		hits, misses := an.RigPoolStats()
		e.lay.nets += len(reps)
		e.lay.cache.Hits += cs.Hits
		e.lay.cache.Misses += cs.Misses
		e.lay.rigHits += hits
		e.lay.rigMisses += misses
		if probe != nil {
			e.lay.gets += probe.gets.Load()
			e.lay.getHits += probe.hits.Load()
			e.lay.puts += probe.puts.Load()
		}

		got, err := digestReports(reps)
		if err != nil {
			return p, err
		}
		e.checkDigest(e.name, i, &want, got)
		e.chk.check(len(reps) == len(d.Clusters), "pass %d: %d reports for %d clusters", i, len(reps), len(d.Clusters))
		if warm {
			// No characterisation sweep runs: every artefact comes from
			// disk, and the only transistor-level solves left are the
			// alignment's driver-alone transients (a DC point plus a
			// transient), one per cluster whose victim carries a glitch.
			e.chk.check(solves == 2*int64(glitched), "pass %d: %d transistor-level solves against a warm store, want %d", i, solves, 2*glitched)
			e.chk.check(cs.Misses > 0 && cs.DiskHits == cs.Misses, "pass %d: %d disk hits for %d misses", i, cs.DiskHits, cs.Misses)
			for _, r := range reps {
				e.chk.check(r.Feasibility != nil && r.Feasibility.RealisticMarginV >= r.MarginV,
					"pass %d: %s realistic margin below the classic %g", i, r.Cluster, r.MarginV)
			}
		}
		return p, nil
	})
	if err := e.endTimed(); err != nil {
		return err
	}

	e.peakErrPct, err = peakErrPct(ctx, canonicalDesign(sc.accClusters), tech.Corner{})
	return err
}

package charlib

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// CornerJob names one characterisation configuration of a corner sweep: a
// cell kind at a drive strength with one noisy input pin. The
// characterisation state is derived per corner by sensitizing the pin
// (cell.SensitizedState).
type CornerJob struct {
	// Kind is the cell kind ("INV", "NAND2", ...).
	Kind string
	// Drive is the drive strength of the cell variant.
	Drive int
	// Pin is the noisy input pin to characterise.
	Pin string
}

// CornerSweepOptions tunes a corner-matrix/Monte Carlo characterisation
// farm run (SweepCorners).
type CornerSweepOptions struct {
	// LoadCurve configures each corner's load-curve sweep.
	LoadCurve LoadCurveOptions
	// Prop additionally characterises a propagation table per job and
	// corner (transient-heavy).
	Prop bool
	// PropOptions configures the propagation tables when Prop is set.
	PropOptions PropOptions
	// Workers bounds the concurrent (job × corner) characterisations;
	// 0 means GOMAXPROCS.
	Workers int
}

// CornerResult is one corner's slice of a SweepCorners run: the
// per-corner library plus the transistor-level solver work this run
// actually spent on the corner (zero when every artefact came from the
// cache or store — the warm-rerun-does-zero-solves proof reads exactly
// this).
type CornerResult struct {
	// Corner identifies the corner the library was characterised at.
	Corner tech.Corner
	// Library holds the corner's load curves (and prop tables with
	// Options.Prop) in job order, tagged with the corner name.
	Library *Library
	// Stats aggregates the solver work spent on this corner in this run:
	// the load-curve sweeps and, with Options.Prop, the propagation-table
	// transients.
	Stats sim.Counters
}

// OrderCorners returns the corners sorted along the severity axis
// (Corner.Axis, ties broken by name) — monotonically increasing drive
// strength — which is the order SweepCorners returns its results in. The
// input is not modified.
func OrderCorners(corners []tech.Corner) []tech.Corner {
	out := append([]tech.Corner(nil), corners...)
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := out[i].Axis(), out[j].Axis()
		if ai != aj {
			return ai < aj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SweepCorners characterises every job at every corner — the
// corner-matrix / Monte Carlo farm, and, at the zero corner alone, a plain
// single-corner library run. Each (job, corner) artefact goes through the
// cache's LoadCurve and PropTable accessors on the corner's card, so a
// later analysis at any of the corners is served the farm's artefacts, and
// the nominal corner's artefacts are those of a corner-less run.
//
// Every (job, corner) pair is independent, so all pairs fan out across the
// worker pool and the per-corner artefact bytes never depend on scheduling
// or cache history. Results come back in OrderCorners order; Stats in each
// result counts only the solver work this run actually performed, so a
// rerun over a warm cache reports all-zero stats.
//
// The cache may be nil (every artefact characterises fresh) and may carry
// a persistent store; artefacts go through the cache's usual two-tier
// path, so several farm processes can share a store directory.
func SweepCorners(ctx context.Context, cache *Cache, base *tech.Tech, corners []tech.Corner, jobs []CornerJob, opts CornerSweepOptions) ([]CornerResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(corners) == 0 || len(jobs) == 0 {
		return nil, fmt.Errorf("charlib: corner sweep needs at least one corner and one job")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ordered := OrderCorners(corners)
	type task struct{ ci, ji int }
	type outcome struct {
		lc    *LoadCurve
		pt    *PropTable
		stats sim.Counters
	}
	tasks := make([]task, 0, len(ordered)*len(jobs))
	for ci := range ordered {
		for ji := range jobs {
			tasks = append(tasks, task{ci, ji})
		}
	}
	outcomes := make([]outcome, len(tasks))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	run := func(ti int) error {
		t := tasks[ti]
		corner, job := ordered[t.ci], jobs[t.ji]
		card := corner.Apply(base)
		cl, err := cell.New(card, job.Kind, job.Drive)
		if err != nil {
			return err
		}
		st, err := cl.SensitizedState(job.Pin, true)
		if err != nil {
			return fmt.Errorf("charlib: %s pin %s: %w", job.Kind, job.Pin, err)
		}
		var out outcome
		out.lc, out.stats, err = cache.loadCurve(ctx, cl, st, job.Pin, opts.LoadCurve)
		if err != nil {
			return fmt.Errorf("charlib: corner %s %s/%s: %w", corner.Name, job.Kind, job.Pin, err)
		}
		if opts.Prop {
			var work sim.Counters
			out.pt, work, err = cache.propTable(ctx, cl, st, job.Pin, opts.PropOptions)
			out.stats = out.stats.Add(work)
			if err != nil {
				return fmt.Errorf("charlib: corner %s %s/%s propagation: %w", corner.Name, job.Kind, job.Pin, err)
			}
		}
		outcomes[ti] = out
		return nil
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range next {
				if ctx.Err() != nil {
					continue
				}
				if err := run(ti); err != nil {
					setErr(err)
				}
			}
		}()
	}
	for ti := range tasks {
		next <- ti
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	results := make([]CornerResult, len(ordered))
	for ci, corner := range ordered {
		lib := &Library{Tech: base.Name}
		if !corner.IsNominal() {
			lib.Corner = corner.Name
		}
		res := CornerResult{Corner: corner, Library: lib}
		for ji := range jobs {
			o := outcomes[ci*len(jobs)+ji]
			lib.AddLoadCurve(o.lc)
			if o.pt != nil {
				lib.AddPropTable(o.pt)
			}
			res.Stats = res.Stats.Add(o.stats)
		}
		results[ci] = res
	}
	return results, nil
}

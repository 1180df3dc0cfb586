package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/tech"
)

// farmJobs are the seven cell configurations the generated designs use.
var farmJobs = []charlib.CornerJob{
	{Kind: "INV", Drive: 1, Pin: "A"}, {Kind: "INV", Drive: 2, Pin: "A"}, {Kind: "INV", Drive: 4, Pin: "A"},
	{Kind: "NAND2", Drive: 1, Pin: "A"}, {Kind: "NAND2", Drive: 1, Pin: "B"},
	{Kind: "NAND2", Drive: 2, Pin: "A"}, {Kind: "NAND2", Drive: 2, Pin: "B"},
}

// farmOptions sizes one farm pass to ~1.5 s on two cores: 31×31 load-curve
// grids and 4×3×2 propagation tables instead of the 61×61 and 8×5×4
// defaults, so a run holds enough passes for a steady median.
func farmOptions(vdd float64) charlib.CornerSweepOptions {
	return charlib.CornerSweepOptions{
		LoadCurve: charlib.LoadCurveOptions{NVin: 31, NVout: 31},
		Prop:      true,
		PropOptions: charlib.PropOptions{
			Heights: []float64{0.2 * vdd, 0.47 * vdd, 0.73 * vdd, 1.0 * vdd},
			Widths:  []float64{60e-12, 240e-12, 900e-12},
			Loads:   []float64{10e-15, 120e-15},
		},
		Workers: 2,
	}
}

// runCharfarm: charlib.SweepCorners with propagation tables over the seven
// design cell configurations at ss, tt, ff and two seeded Monte Carlo
// corners, each pass into a fresh store. sim DC and transient Newton work
// plus charstore writes and leases do everything; core.RunEngine never
// runs. It is the write side of the store next to warmstore's reads, and
// the no-change prediction for engine optimisations.
func runCharfarm(ctx context.Context, e *env) error {
	sc := e.cfg.scale
	base := tech.Tech130()
	opts := farmOptions(base.VDD)
	var corners []tech.Corner
	err := e.setup(func() error {
		var err error
		if corners, err = tech.ParseCorners(sc.corners); err != nil {
			return err
		}
		corners = append(corners, tech.SampleCorners(sc.mcCorners, int64(e.cfg.seed), tech.SampleSpec{})...)
		// Warm the process up on the nominal corner's artefacts, in memory.
		_, err = charlib.SweepCorners(ctx, charlib.NewCache(), base, []tech.Corner{{}}, farmJobs, opts)
		return err
	})
	if err != nil {
		return err
	}

	artefacts := len(farmJobs) * len(corners) * 2 // a load curve and a propagation table each
	var want string
	e.beginTimed()
	e.timed(ctx, sc.minFarmPasses, func(i int, traced bool) (pass, error) {
		p := pass{items: artefacts, workers: opts.Workers}
		dir, err := e.tempDir("farm")
		if err != nil {
			return p, err
		}
		defer os.RemoveAll(dir)
		endPass := e.rec.begin("pass", "pass")
		t0 := time.Now()
		store, err := charstore.Open(dir)
		if err != nil {
			return p, err
		}
		probe := newStoreProbe(store, e.rec)
		cache := charlib.NewCache()
		cache.SetStore(probe)
		endSweep := e.rec.begin("farm", "charlib.sweep_corners")
		res, err := charlib.SweepCorners(ctx, cache, base, corners, farmJobs, opts)
		endSweep(nil)
		p.wall = time.Since(t0)
		endPass(map[string]any{"pass": i, "traced": traced})
		if err != nil {
			return p, err
		}
		p.latMs = probe.builtMs

		cs := cache.Stats()
		e.lay.cache.Hits += cs.Hits
		e.lay.cache.Misses += cs.Misses
		e.lay.gets += probe.gets.Load()
		e.lay.getHits += probe.hits.Load()
		e.lay.puts += probe.puts.Load()

		var libs bytes.Buffer
		for _, r := range res {
			if err := r.Library.WriteJSON(&libs); err != nil {
				return p, err
			}
		}
		sum := sha256.Sum256(libs.Bytes())
		e.checkDigest(e.name, i, &want, hex.EncodeToString(sum[:]))
		e.chk.check(len(res) == len(corners), "pass %d: %d libraries for %d corners", i, len(res), len(corners))
		e.chk.check(store.Len() == artefacts, "pass %d: store holds %d artefacts, want %d", i, store.Len(), artefacts)
		e.chk.check(len(p.latMs) == artefacts, "pass %d: %d artefacts written, want %d", i, len(p.latMs), artefacts)
		return p, nil
	})
	if err := e.endTimed(); err != nil {
		return err
	}

	// The farm's accuracy figure: the macromodel against golden at the
	// slow corner, on the head of the canonical design.
	ss, err := tech.CornerByName("ss")
	if err != nil {
		return err
	}
	acc := canonicalDesign(min(8, sc.accClusters))
	if e.peakErrPct, err = peakErrPct(ctx, acc, ss); err != nil {
		return fmt.Errorf("accuracy at ss: %w", err)
	}
	return nil
}

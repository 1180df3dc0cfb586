// Command libchar pre-characterises library cells for noise analysis and
// writes the result as a JSON library: the non-linear VCCS load-curve
// tables of the paper's eq. (1) and, optionally, the propagation tables
// used by traditional superposition-based flows.
//
//	libchar -tech cmos130 -cell NAND2 -pin B -out nand2.json
//	libchar -tech cmos090 -all -out lib90.json
//
// With -cache-dir every characterised artefact is also persisted to a
// content-addressed store, so a later snacheck/noisetab run pointed at the
// same directory starts warm — libchar is the offline library step of the
// paper's flow. A whole precharacterised library travels between machines
// as a portable bundle:
//
//	libchar -tech cmos130 -all -prop -cache-dir ./noise-lib     # precharacterise
//	libchar -cache-dir ./noise-lib -export-store lib130.bundle  # pack it up
//	libchar -cache-dir /fresh/dir  -import-store lib130.bundle  # unpack elsewhere
//
// Bundles carry the model version they were built under; importing a
// bundle from a different model generation is refused (recharacterise
// instead), and individual damaged entries are skipped, never fatal.
//
// Every sweep seeds its Newton solves from the previous sweep point (warm
// start); the transient sweeps behind -prop also seed each timestep from a
// polynomial extrapolation (the predictor). See charlib.Cache.LoadCurve and
// charlib.Cache.PropTable.
//
// With -nlcaps characterisation runs against the NLMOS nonlinear
// gate-charge card (tech.Tech.WithNonlinearCaps): gate capacitances follow
// a tanh law of the gate voltage and transient sweeps re-stamp them every
// Newton iteration. The artefacts are physically different from
// constant-cap ones and take distinct cache and store keys, so a shared
// -cache-dir serves both model families without mixing.
//
// # Corner-matrix and Monte Carlo farm
//
// Every run is a characterisation farm (charlib.SweepCorners): its jobs fan
// out across -workers (0 = GOMAXPROCS; a negative count is a usage error,
// exit 2). Without -corners and -mc-samples the farm runs at
// the nominal corner alone and writes one library to -out. -corners and/or
// -mc-samples characterise every cell at every requested operating corner
// (and sampled Monte Carlo variation), with one library file per corner:
//
//	libchar -tech cmos130 -all -corners tt,ss,ff -out lib.json
//	  → lib.tt.json, lib.ss.json, lib.ff.json
//	libchar -tech cmos130 -cell INV -mc-samples 100 -mc-seed 7 -out mc.json
//	  → mc.mc0000.json ... mc.mc0099.json
//
// Every corner's artefacts are byte-identical to a single-corner run at
// that corner (and the nominal tt corner's to a plain corner-less run), so
// a shared -cache-dir serves farm, libchar and snacheck runs alike.
// -stats-out writes the per-corner work and cache counters as JSON for
// scripted assertions in every mode, the nominal run's entry under the
// corner name "nominal" (CI holds the warm-rerun-zero-solves and
// every-corner-seeded properties on exactly this output).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

func main() {
	techName := flag.String("tech", "cmos130", "technology: cmos130 or cmos090")
	cellKind := flag.String("cell", "", "cell kind (INV, NAND2, ...); empty with -all characterises everything")
	drive := flag.Int("drive", 1, "drive strength")
	pin := flag.String("pin", "", "noisy input pin (default: first input)")
	all := flag.Bool("all", false, "characterise every cell kind and input pin")
	withProp := flag.Bool("prop", false, "also build propagation tables (slow)")
	grid := flag.Int("grid", 61, "load-curve grid points per axis")
	nlcaps := flag.Bool("nlcaps", false, "characterise with the NLMOS voltage-dependent gate-charge model (distinct cache/store keys, physically different artefacts)")
	out := flag.String("out", "", "output JSON path (default stdout); with -corners/-mc-samples the corner name goes before the extension")
	cacheDir := flag.String("cache-dir", "", "persist characterised artefacts to a content-addressed store at this directory")
	exportStore := flag.String("export-store", "", "write the whole -cache-dir store as a portable bundle to this path and exit")
	importStore := flag.String("import-store", "", "import a bundle into -cache-dir and exit")
	cornerList := flag.String("corners", "", "comma-separated standard corners to farm over (tt,ff,ss,fs,sf); one library per corner")
	mcSamples := flag.Int("mc-samples", 0, "number of Monte Carlo corner samples to farm over; one library per corner")
	mcSeed := flag.Int64("mc-seed", 1, "Monte Carlo sampler seed (same seed, same corners)")
	workers := flag.Int("workers", 0, "characterisation worker goroutines (0 = GOMAXPROCS)")
	statsOut := flag.String("stats-out", "", "write per-corner work/cache counters as JSON to this path ('-' for stdout)")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "libchar: -workers must be 0 (GOMAXPROCS) or positive, got %d\n", *workers)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var store *charstore.Store
	if *cacheDir != "" {
		var err error
		store, err = charstore.Open(*cacheDir)
		if err != nil {
			fail(err)
		}
	}
	if *exportStore != "" || *importStore != "" {
		if store == nil {
			fail(fmt.Errorf("-export-store/-import-store need -cache-dir"))
		}
		if *importStore != "" {
			f, err := os.Open(*importStore)
			if err != nil {
				fail(err)
			}
			n, err := store.Import(f)
			f.Close()
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "libchar: imported %d artefacts into %s (%d total)\n",
				n, store.Dir(), store.Len())
		}
		if *exportStore != "" {
			f, err := os.Create(*exportStore)
			if err != nil {
				fail(err)
			}
			err = store.Export(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "libchar: exported %d artefacts from %s\n", store.Len(), store.Dir())
		}
		return
	}

	// The cache is how artefacts reach the store: characterisation goes
	// through its two-tier path, so re-running libchar over an existing
	// store is itself warm.
	cache := charlib.NewCache()
	if store != nil {
		cache.SetStore(store)
	}

	t, err := tech.ByName(*techName)
	if err != nil {
		fail(err)
	}
	if *nlcaps {
		// Deriving the base card up front makes every downstream consumer —
		// cell construction, cache keys, store fingerprints, the corner farm
		// (Corner.Apply commutes with WithNonlinearCaps) — see one consistent
		// nonlinear-cap card.
		t = t.WithNonlinearCaps()
	}

	var jobs []charlib.CornerJob
	addJob := func(c *cell.Cell, kind, pin string) {
		if _, err := c.SensitizedState(pin, true); err != nil {
			fmt.Fprintf(os.Stderr, "libchar: skipping %s pin %s: %v\n", kind, pin, err)
			return
		}
		jobs = append(jobs, charlib.CornerJob{Kind: kind, Drive: *drive, Pin: pin})
	}
	if *all {
		for _, k := range cell.Kinds() {
			c := cell.MustNew(t, k, *drive)
			for _, p := range c.Inputs() {
				addJob(c, k, p)
			}
		}
	} else {
		if *cellKind == "" {
			fail(fmt.Errorf("need -cell or -all"))
		}
		c, err := cell.New(t, *cellKind, *drive)
		if err != nil {
			fail(err)
		}
		p := *pin
		if p == "" {
			p = c.Inputs()[0]
		}
		addJob(c, *cellKind, p)
	}

	// The zero corner is the nominal card itself: a run without -corners
	// and -mc-samples is the farm at that one corner.
	corners := []tech.Corner{{}}
	if *cornerList != "" || *mcSamples > 0 {
		if corners, err = tech.ParseCorners(*cornerList); err != nil {
			fail(err)
		}
		if *mcSamples > 0 {
			corners = append(corners, tech.SampleCorners(*mcSamples, *mcSeed, tech.SampleSpec{})...)
		}
	}
	runFarm(ctx, cache, store, t, corners, jobs, charlib.CornerSweepOptions{
		LoadCurve: charlib.LoadCurveOptions{NVin: *grid, NVout: *grid},
		Prop:      *withProp,
		Workers:   *workers,
	}, *out, *statsOut)
}

// farmCorner is the per-corner entry of the -stats-out document: the
// corner name plus its solver work, inlined under the sim.Counters wire
// names.
type farmCorner struct {
	Corner string `json:"corner"`
	sim.Counters
}

// farmStats is the -stats-out document: per-corner solver work in
// charlib.OrderCorners order plus run totals and the cache counters. A
// rerun over a warm store reports total_solves 0.
type farmStats struct {
	Corners          []farmCorner       `json:"corners"`
	TotalSolves      int64              `json:"total_solves"`
	TotalNewtonIters int64              `json:"total_newton_iters"`
	Cache            charlib.CacheStats `json:"cache"`
}

// runFarm executes the farm and writes one library per corner plus the
// optional stats document. The zero corner's library goes to out itself
// and its stats entry and summary line are labelled "nominal", the tag
// /statsz uses.
func runFarm(ctx context.Context, cache *charlib.Cache, store *charstore.Store, base *tech.Tech, corners []tech.Corner, jobs []charlib.CornerJob, opts charlib.CornerSweepOptions, out, statsOut string) {
	if len(jobs) == 0 {
		fail(fmt.Errorf("no characterisable jobs"))
	}
	results, err := charlib.SweepCorners(ctx, cache, base, corners, jobs, opts)
	if err != nil {
		fail(err)
	}

	stats := farmStats{Cache: cache.Stats()}
	for _, r := range results {
		name, path := r.Corner.Name, cornerOutPath(out, r.Corner.Name)
		if name == "" {
			name, path = "nominal", out
		}
		fmt.Fprintf(os.Stderr, "libchar: corner %-8s %d load curves, %d Newton iters (%d DC solves, %d warm starts, %d fallbacks)\n",
			name, len(r.Library.LoadCurves), r.Stats.NewtonIters,
			r.Stats.DC, r.Stats.WarmStarts, r.Stats.WarmFallbacks)
		stats.Corners = append(stats.Corners, farmCorner{name, r.Stats})
		stats.TotalSolves += r.Stats.Total()
		stats.TotalNewtonIters += r.Stats.NewtonIters

		w := os.Stdout
		if out != "" {
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			w = f
		}
		err := r.Library.WriteJSON(w)
		if w != os.Stdout {
			if cerr := w.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(err)
		}
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "libchar: store %s holds %d artefacts (%d loaded from disk this run)\n",
			store.Dir(), store.Len(), stats.Cache.DiskHits)
	}
	if statsOut != "" {
		w := os.Stdout
		if statsOut != "-" {
			f, err := os.Create(statsOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fail(err)
		}
	}
}

// cornerOutPath inserts the corner name before the output path's
// extension: lib.json + ss → lib.ss.json (extensionless paths get a
// plain suffix).
func cornerOutPath(out, corner string) string {
	ext := filepath.Ext(out)
	return strings.TrimSuffix(out, ext) + "." + corner + ext
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "libchar: %v\n", err)
	os.Exit(1)
}

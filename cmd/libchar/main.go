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
// -warm-start and -predictor select the characterisation solver policy
// (sim.Policy documents both modes); the predictor only affects the
// transient sweeps behind -prop, since load curves are DC-only.
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
// -corners and/or -mc-samples switch libchar into farm mode: every cell is
// characterised at every requested operating corner (and sampled
// Monte Carlo variation), fanned out across -workers, with one library
// file per corner:
//
//	libchar -tech cmos130 -all -corners tt,ss,ff -warm-start -out lib.json
//	  → lib.tt.json, lib.ss.json, lib.ff.json
//	libchar -tech cmos130 -cell INV -mc-samples 100 -mc-seed 7 -out mc.json
//	  → mc.mc0000.json ... mc.mc0099.json
//
// Corners are solved in continuation order and, with -warm-start, each
// non-nominal corner's sweep is seeded from its neighbour's converged
// state (adjacent-corner continuation), so the whole matrix costs far
// fewer Newton iterations than characterising each corner cold. The
// nominal (tt) corner's artefacts are byte-identical to a plain
// single-corner run, so a shared -cache-dir serves both. -stats-out
// writes the per-corner work and cache counters as JSON for scripted
// assertions (CI holds the warm-rerun-zero-solves and
// continuation-cuts-iterations properties on exactly this output).
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
	var policy sim.Policy
	policy.RegisterFlags(flag.CommandLine)
	techName := flag.String("tech", "cmos130", "technology: cmos130 or cmos090")
	cellKind := flag.String("cell", "", "cell kind (INV, NAND2, ...); empty with -all characterises everything")
	drive := flag.Int("drive", 1, "drive strength")
	pin := flag.String("pin", "", "noisy input pin (default: first input)")
	all := flag.Bool("all", false, "characterise every cell kind and input pin")
	withProp := flag.Bool("prop", false, "also build propagation tables (slow)")
	grid := flag.Int("grid", 61, "load-curve grid points per axis")
	nlcaps := flag.Bool("nlcaps", false, "characterise with the NLMOS voltage-dependent gate-charge model (distinct cache/store keys, physically different artefacts)")
	out := flag.String("out", "", "output JSON path (default stdout); farm mode inserts the corner name before the extension")
	cacheDir := flag.String("cache-dir", "", "persist characterised artefacts to a content-addressed store at this directory")
	exportStore := flag.String("export-store", "", "write the whole -cache-dir store as a portable bundle to this path and exit")
	importStore := flag.String("import-store", "", "import a bundle into -cache-dir and exit")
	cornerList := flag.String("corners", "", "comma-separated standard corners to farm over (tt,ff,ss,fs,sf); enables farm mode")
	mcSamples := flag.Int("mc-samples", 0, "number of Monte Carlo corner samples to farm over; enables farm mode")
	mcSeed := flag.Int64("mc-seed", 1, "Monte Carlo sampler seed (same seed, same corners)")
	workers := flag.Int("workers", 0, "farm worker goroutines (0 = GOMAXPROCS)")
	statsOut := flag.String("stats-out", "", "write farm per-corner work/cache counters as JSON to this path ('-' for stdout)")
	flag.Parse()

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

	type job struct {
		kind, pin string
	}
	var jobs []job
	if *all {
		for _, k := range cell.Kinds() {
			c := cell.MustNew(t, k, *drive)
			for _, p := range c.Inputs() {
				jobs = append(jobs, job{k, p})
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
		jobs = append(jobs, job{*cellKind, p})
	}

	lcOpts := charlib.LoadCurveOptions{NVin: *grid, NVout: *grid, Policy: policy}
	propOpts := charlib.PropOptions{Policy: policy}
	if *cornerList != "" || *mcSamples > 0 {
		// Farm mode: characterise every sensitizable job at every corner.
		corners, err := tech.ParseCorners(*cornerList)
		if err != nil {
			fail(err)
		}
		if *mcSamples > 0 {
			corners = append(corners, tech.SampleCorners(*mcSamples, *mcSeed, tech.SampleSpec{})...)
		}
		var cjobs []charlib.CornerJob
		for _, j := range jobs {
			c := cell.MustNew(t, j.kind, *drive)
			if _, err := c.SensitizedState(j.pin, true); err != nil {
				fmt.Fprintf(os.Stderr, "libchar: skipping %s pin %s: %v\n", j.kind, j.pin, err)
				continue
			}
			cjobs = append(cjobs, charlib.CornerJob{Kind: j.kind, Drive: *drive, Pin: j.pin})
		}
		runFarm(ctx, cache, store, t, corners, cjobs, charlib.CornerSweepOptions{
			LoadCurve:   lcOpts,
			Prop:        *withProp,
			PropOptions: propOpts,
			Workers:     *workers,
		}, *out, *statsOut)
		return
	}

	lib := &charlib.Library{Tech: t.Name}
	for _, j := range jobs {
		c, err := cell.New(t, j.kind, *drive)
		if err != nil {
			fail(err)
		}
		st, err := c.SensitizedState(j.pin, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "libchar: skipping %s pin %s: %v\n", j.kind, j.pin, err)
			continue
		}
		lc, err := cache.LoadCurve(ctx, c, st, j.pin, lcOpts)
		if err != nil {
			fail(fmt.Errorf("%s/%s: %w", j.kind, j.pin, err))
		}
		lib.AddLoadCurve(lc)
		fmt.Fprintf(os.Stderr, "libchar: %s pin %s state %s: load curve %dx%d, R_hold %.0f ohm\n",
			c.Name(), j.pin, st, lc.NVin, lc.NVout,
			lc.HoldingResistance(c.PinVoltage(st[j.pin]), c.PinVoltage(c.Logic(st))))
		if *withProp {
			pt, err := cache.PropTable(ctx, c, st, j.pin, propOpts)
			if err != nil {
				fail(fmt.Errorf("%s/%s propagation: %w", j.kind, j.pin, err))
			}
			lib.AddPropTable(pt)
			fmt.Fprintf(os.Stderr, "libchar: %s pin %s: propagation table, max peak %.3f V\n",
				c.Name(), j.pin, pt.MaxPeak())
		}
	}
	if store != nil {
		stats := cache.Stats()
		fmt.Fprintf(os.Stderr, "libchar: store %s holds %d artefacts (%d loaded from disk this run)\n",
			store.Dir(), store.Len(), stats.DiskHits)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := lib.WriteJSON(w); err != nil {
		fail(err)
	}
}

// farmCorner is the per-corner entry of the -stats-out document: the
// corner name plus its solver work, inlined under the sim.Counters wire
// names.
type farmCorner struct {
	Corner string `json:"corner"`
	sim.Counters
}

// farmStats is the -stats-out document: per-corner solver work in
// continuation order plus run totals and the cache counters. A rerun over
// a warm store reports total_solves 0; a -warm-start matrix reports fewer
// total_newton_iters than the same matrix cold.
type farmStats struct {
	Corners          []farmCorner       `json:"corners"`
	TotalSolves      int64              `json:"total_solves"`
	TotalNewtonIters int64              `json:"total_newton_iters"`
	Cache            charlib.CacheStats `json:"cache"`
}

// runFarm executes the corner-matrix / Monte Carlo farm and writes one
// library per corner plus the optional stats document.
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
		fmt.Fprintf(os.Stderr, "libchar: corner %-8s %d load curves, %d Newton iters (%d DC solves, %d warm starts, %d fallbacks)\n",
			r.Corner.Name, len(r.Library.LoadCurves), r.Stats.NewtonIters,
			r.Stats.DC, r.Stats.WarmStarts, r.Stats.WarmFallbacks)
		stats.Corners = append(stats.Corners, farmCorner{r.Corner.Name, r.Stats})
		stats.TotalSolves += r.Stats.Total()
		stats.TotalNewtonIters += r.Stats.NewtonIters

		w := os.Stdout
		if out != "" {
			f, err := os.Create(cornerOutPath(out, r.Corner.Name))
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

// Command snacheck runs static noise analysis on a JSON design description
// and reports, per victim net, the total noise at the receiver and whether
// it violates the receiver's Noise Rejection Curve.
//
//	snacheck -design design.json [-method macromodel|superposition|zolotov|golden]
//	         [-align] [-workers N] [-policy fail-fast|continue] [-json]
//	         [-cache-dir DIR] [-deterministic] [-feasibility]
//	         [-corner tt|ff|ss|fs|sf] [-nlcaps]
//	snacheck -sample > design.json     # emit a starter design
//
// Clusters are analysed concurrently on a bounded worker pool (-workers,
// default GOMAXPROCS) with a characterisation cache shared across all
// workers; per-stage timing totals are printed after the report table.
// Interrupting the run (SIGINT/SIGTERM) cancels the analysis promptly —
// mid-characterisation and mid-transient — via context cancellation.
//
// With -cache-dir the characterisation cache gains a persistent
// content-addressed tier at DIR: the first run characterises and persists
// every artefact, and later runs against the same library/options load
// them from disk instead of re-running the transistor-level sweeps. A
// damaged or unwritable store degrades to memory-only caching with a
// warning on stderr — it never changes results or blocks sign-off.
//
// Characterisation sweeps warm-start each Newton solve from the previous
// sweep point and seed each transient timestep by polynomial extrapolation
// (DESIGN.md §14, "One characterisation path").
//
// With -feasibility the FRAME-style aggressor-correlation filter runs
// before evaluation: switching windows, mutex groups and implications
// declared in the design prune unrealizable aggressor combinations, and
// each net is reported with both the classic worst-case margin and a
// bounded-realistic one (the worst *feasible* scenario at its constrained
// alignment). The table gains realistic columns and a pruning totals line;
// the JSON gains per-report "feasibility" objects and an aggregate census.
// Without the flag the output is byte-identical to the classic flow.
//
// With -corner the whole analysis runs at a named operating corner: the
// technology card is derived (supply, temperature, threshold and mobility
// shifts) before any cluster is built, characterised artefacts land under
// corner-specific cache/store keys, and every report carries a "corner"
// tag. Without the flag the analysis is nominal and the output — including
// every cache key — is byte-identical to earlier corner-less runs.
//
// With -nlcaps every cell is built with the NLMOS nonlinear gate-charge
// model: gate capacitances follow a tanh law of the instantaneous gate
// voltage instead of staying constant, and the engine re-evaluates the
// capacitor stamps inside every Newton iteration with a charge-conserving
// companion form. Reported noise changes physically (gate charge
// redistributes during a glitch), so nlcap artefacts take distinct cache
// and store keys and never mix with constant-cap ones. Without the flag
// the output is byte-identical to earlier runs.
//
// With -json the report is emitted as a single machine-readable JSON
// document whose reports and summary use the stable schema of the public
// stanoise.NetReport and stanoise.Summary types (margins that are +Inf,
// i.e. unfailable, appear as null). With -policy continue every cluster is
// analysed even after failures and each failure is listed with its cluster
// and pipeline stage. With -deterministic the JSON omits everything that
// legitimately varies between identical runs — wall-clock timings and
// cache counters — so a cold and a warm -cache-dir run of the same design
// produce byte-identical documents (CI asserts exactly that).
//
// Exit codes (stable, for sign-off scripting):
//
//	0  every net was analysed and passes its NRC (also: empty design)
//	1  analysis error (bad design file, cluster failure, interrupted run)
//	2  usage error (bad flags)
//	3  the analysis completed and one or more nets violate their NRC
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"stanoise"
)

func main() {
	var opts stanoise.Options
	opts.RegisterFlags(flag.CommandLine)
	designPath := flag.String("design", "", "design JSON file")
	method := flag.String("method", "macromodel", "victim model: macromodel, superposition, zolotov, golden")
	align := flag.Bool("align", true, "search worst-case aggressor alignment")
	dt := flag.Float64("dt-ps", 2, "engine timestep in ps")
	workers := flag.Int("workers", 0, "concurrent cluster workers (0 = GOMAXPROCS)")
	policy := flag.String("policy", "fail-fast", "error policy: fail-fast or continue (analyse every cluster, collect failures)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	cacheDir := flag.String("cache-dir", "", "persistent characterisation store directory (warm runs skip all transistor-level sweeps)")
	deterministic := flag.Bool("deterministic", false, "omit run-varying fields (timings, cache counters) from -json output")
	sample := flag.Bool("sample", false, "print a sample design JSON and exit")
	flag.Parse()

	if *sample {
		if err := stanoise.SampleDesign().WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *designPath == "" {
		fmt.Fprintln(os.Stderr, "snacheck: -design is required (see -sample)")
		os.Exit(2)
	}
	m, err := stanoise.ParseMethod(*method)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
		os.Exit(2)
	}
	if math.IsNaN(*dt) || math.IsInf(*dt, 0) || *dt <= 0 {
		fmt.Fprintf(os.Stderr, "snacheck: -dt-ps must be a finite positive number, got %v\n", *dt)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "snacheck: -workers must be 0 (GOMAXPROCS) or positive, got %d\n", *workers)
		os.Exit(2)
	}
	pol, err := stanoise.ParseErrorPolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
		os.Exit(2)
	}
	f, err := os.Open(*designPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
		os.Exit(1)
	}
	design, err := stanoise.ParseDesign(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts.Method, opts.Align, opts.Dt = m, *align, *dt*1e-12
	opts.Workers, opts.OnError, opts.CacheDir = *workers, pol, *cacheDir
	an := stanoise.NewAnalyzer(design, opts)
	if err := an.StoreError(); err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: warning: %v (continuing without a persistent cache)\n", err)
	}
	wall := time.Now()
	reports, err := an.Analyze(ctx)
	elapsed := time.Since(wall)
	clusterErrs := collectClusterErrors(err)
	if err != nil && len(clusterErrs) == 0 {
		// Not a per-cluster failure: cancellation or an internal error.
		fmt.Fprintf(os.Stderr, "snacheck: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		writeJSON(design, an, m, pol, reports, clusterErrs, elapsed, *deterministic, opts.Feasibility)
	} else {
		writeText(design, an, m, reports, clusterErrs, elapsed, opts.Feasibility)
	}
	switch {
	case len(clusterErrs) > 0:
		os.Exit(1)
	case stanoise.Summarize(reports).Failing > 0:
		os.Exit(3)
	}
}

// collectClusterErrors flattens an Analyze error — a single *ClusterError
// under fail-fast, or an errors.Join of them under -policy continue — into
// the list of typed per-cluster failures. Non-cluster errors (notably
// context cancellation) yield an empty list.
func collectClusterErrors(err error) []*stanoise.ClusterError {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var out []*stanoise.ClusterError
		for _, e := range joined.Unwrap() {
			out = append(out, collectClusterErrors(e)...)
		}
		return out
	}
	var cerr *stanoise.ClusterError
	if errors.As(err, &cerr) {
		return []*stanoise.ClusterError{cerr}
	}
	return nil
}

func writeText(design *stanoise.Design, an *stanoise.Analyzer, m stanoise.Method,
	reports []stanoise.NetReport, clusterErrs []*stanoise.ClusterError, elapsed time.Duration, feasibility bool) {
	fmt.Printf("static noise analysis of %q (%s victim model)\n", design.Name, m)
	if len(reports) > 0 {
		tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		header := "cluster\trecv peak (V)\tarea (V·ps)\twidth (ps)\tDP peak (V)\tNRC\tmargin (V)\ttime"
		if feasibility {
			header = "cluster\trecv peak (V)\tarea (V·ps)\twidth (ps)\tDP peak (V)\tNRC\tmargin (V)\treal peak (V)\treal margin (V)\tpruned\ttime"
		}
		fmt.Fprintln(tw, header)
		for _, r := range reports {
			status := "pass"
			if r.Fails {
				status = "FAIL"
			}
			margin := fmt.Sprintf("%.3f", r.MarginV)
			if math.IsInf(float64(r.MarginV), 1) {
				margin = "inf"
			}
			if feasibility && r.Feasibility != nil {
				fr := r.Feasibility
				if fr.RealisticFails {
					status = "FAIL"
				} else if r.Fails {
					// Classic worst case fails but no feasible scenario
					// does: a false violation the filter retired.
					status = "pass*"
				}
				rmargin := fmt.Sprintf("%.3f", fr.RealisticMarginV)
				if math.IsInf(float64(fr.RealisticMarginV), 1) {
					rmargin = "inf"
				}
				fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%.0f\t%.3f\t%s\t%s\t%.3f\t%s\t%d/%d\t%s\n",
					r.Cluster, r.PeakV, r.AreaVps, r.WidthPs, r.DPPeakV,
					status, margin, fr.RealisticPeakV, rmargin, fr.Pruned, fr.Combos,
					r.Elapsed.Round(1e5).String())
				continue
			}
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%.0f\t%.3f\t%s\t%s\t%s\n",
				r.Cluster, r.PeakV, r.AreaVps, r.WidthPs, r.DPPeakV,
				status, margin, r.Elapsed.Round(1e5).String())
		}
		tw.Flush()
	}
	for _, ce := range clusterErrs {
		fmt.Printf("ERROR  %s (stage %s): %v\n", ce.Cluster, ce.Stage, ce.Err)
	}
	s := stanoise.Summarize(reports)
	fmt.Printf("\n%s\n", s)
	if feasibility {
		ft := sumFeasibility(reports)
		fmt.Printf("feasibility: %d of %d aggressor combinations pruned; %d scenarios evaluated; realistic failures %d of %d classic\n",
			ft.Pruned, ft.Combos, ft.Scenarios, ft.realFailing, s.Failing)
	}
	if s.Total == 0 && len(clusterErrs) == 0 {
		return
	}

	var stages stanoise.StageTiming
	for _, r := range reports {
		stages.Add(r.Timing)
	}
	cs := an.CacheStats()
	if feasibility {
		fmt.Printf("stage totals: build %s, characterise %s, feasibility %s, align %s, evaluate %s, nrc %s (sum %s over %d workers; wall %s)\n",
			stages.Build.Round(time.Millisecond), stages.Models.Round(time.Millisecond),
			stages.Feas.Round(time.Millisecond),
			stages.Align.Round(time.Millisecond), stages.Eval.Round(time.Millisecond),
			stages.NRC.Round(time.Millisecond), stages.Total().Round(time.Millisecond),
			an.Workers(), elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("stage totals: build %s, characterise %s, align %s, evaluate %s, nrc %s (sum %s over %d workers; wall %s)\n",
			stages.Build.Round(time.Millisecond), stages.Models.Round(time.Millisecond),
			stages.Align.Round(time.Millisecond), stages.Eval.Round(time.Millisecond),
			stages.NRC.Round(time.Millisecond), stages.Total().Round(time.Millisecond),
			an.Workers(), elapsed.Round(time.Millisecond))
	}
	fmt.Printf("characterisation cache: %d artefacts, %d hits, %d misses (%d served from disk)\n",
		cs.Entries, cs.Hits, cs.Misses, cs.DiskHits)
}

// feasTotals is the design-level feasibility census: the summed FeasReport
// counters plus the realistic failure count. It is both the JSON aggregate
// ("feasibility" in the -json document) and the source of the text totals
// line.
type feasTotals struct {
	Combos    int64 `json:"combos"`
	Feasible  int64 `json:"feasible"`
	Pruned    int64 `json:"pruned"`
	Scenarios int   `json:"scenarios"`
	Failing   int   `json:"failing"`

	realFailing int
}

func sumFeasibility(reports []stanoise.NetReport) feasTotals {
	var t feasTotals
	for _, r := range reports {
		if r.Feasibility == nil {
			continue
		}
		t.Combos += r.Feasibility.Combos
		t.Feasible += r.Feasibility.Feasible
		t.Pruned += r.Feasibility.Pruned
		t.Scenarios += r.Feasibility.Scenarios
		if r.Feasibility.RealisticFails {
			t.realFailing++
		}
	}
	t.Failing = t.realFailing
	return t
}

// jsonReport is the top-level document of snacheck -json. Reports, errors
// and summary serialise through the stable schemas of the public types.
// Cache and ElapsedNs are absent under -deterministic (they are the only
// fields that legitimately differ between identical runs).
type jsonReport struct {
	Design      string                   `json:"design"`
	Method      stanoise.Method          `json:"method"`
	Policy      string                   `json:"policy"`
	Workers     int                      `json:"workers"`
	Reports     []stanoise.NetReport     `json:"reports"`
	Errors      []*stanoise.ClusterError `json:"errors,omitempty"`
	Summary     stanoise.Summary         `json:"summary"`
	Feasibility *feasTotals              `json:"feasibility,omitempty"`
	Cache       *stanoise.CacheStats     `json:"cache,omitempty"`
	ElapsedNs   int64                    `json:"elapsed_ns,omitempty"`
}

func writeJSON(design *stanoise.Design, an *stanoise.Analyzer, m stanoise.Method, pol stanoise.ErrorPolicy,
	reports []stanoise.NetReport, clusterErrs []*stanoise.ClusterError, elapsed time.Duration, deterministic, feasibility bool) {
	doc := jsonReport{
		Design:  design.Name,
		Method:  m,
		Policy:  pol.String(),
		Workers: an.Workers(),
		Reports: reports,
		Errors:  clusterErrs,
		Summary: stanoise.Summarize(reports),
	}
	if feasibility {
		ft := sumFeasibility(reports)
		doc.Feasibility = &ft
	}
	if deterministic {
		for i := range doc.Reports {
			doc.Reports[i].ClearTiming()
		}
	} else {
		cs := an.CacheStats()
		doc.Cache = &cs
		doc.ElapsedNs = elapsed.Nanoseconds()
	}
	if doc.Reports == nil {
		doc.Reports = []stanoise.NetReport{}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "snacheck: encoding report: %v\n", err)
		os.Exit(1)
	}
}

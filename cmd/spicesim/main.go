// Command spicesim runs the repository's transistor-level simulator (the
// golden ELDO stand-in) on a SPICE-subset netlist.
//
//	spicesim -dc circuit.sp                   # operating point
//	spicesim -tstop 2n -dt 1p -probe out circuit.sp   # transient, CSV to stdout
//
// Both analyses compile the netlist and run it on one simulator session.
// A transient's -tstop and -dt must be positive numbers: a zero, negative
// or unparseable value is a usage error (exit 2) reported before any
// solve.
//
// With -stats a solver-counter line is printed to stderr after the run
// (key=value pairs: dc_solves, transients, newton_iters,
// linear_fast_path_runs, low_rank_runs, low_rank_fallbacks,
// transient_steps, predictor_seeds). CI greps it to assert that a pure-RC
// transient takes the linear fast path with zero Newton iterations, and
// that an inverter driving an RC line takes the factored step loop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stanoise/internal/circuit"
	"stanoise/internal/sim"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "spicesim: %v\n", err)
		os.Exit(1)
	}
}

var errUsage = fmt.Errorf("usage")

// run parses flags and executes the requested analysis, writing results to
// stdout. It is the testable core of the command.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spicesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dc := fs.Bool("dc", false, "compute the DC operating point only")
	tstop := fs.String("tstop", "2n", "transient stop time (with engineering suffix)")
	dt := fs.String("dt", "1p", "transient step (with engineering suffix)")
	probe := fs.String("probe", "", "comma-separated node names to print (default: all)")
	stats := fs.Bool("stats", false, "print solver counters (Newton iterations, fast-path and low-rank runs) to stderr after the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: spicesim [flags] netlist.sp")
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	ckt, err := circuit.Parse(f)
	if err != nil {
		return err
	}

	// Validate probes, and a transient's stop time and step, before
	// spending any solve time.
	nodes, err := probeList(ckt, *probe)
	if err != nil {
		return err
	}
	var stop, step float64
	if !*dc {
		if stop, err = circuit.ParseValue(*tstop); err != nil {
			fmt.Fprintf(stderr, "spicesim: bad -tstop: invalid value %q: %v\n", *tstop, err)
			return errUsage
		}
		if step, err = circuit.ParseValue(*dt); err != nil {
			fmt.Fprintf(stderr, "spicesim: bad -dt: invalid value %q: %v\n", *dt, err)
			return errUsage
		}
		if stop <= 0 || step <= 0 {
			fmt.Fprintf(stderr, "spicesim: -tstop and -dt must be positive, got %g and %g\n", stop, step)
			return errUsage
		}
	}
	sess, err := sim.NewSession(sim.Compile(ckt), step)
	if err != nil {
		return err
	}

	before := sim.Snapshot()
	defer func() {
		if *stats {
			writeStats(stderr, sim.Snapshot().Sub(before))
		}
	}()

	if *dc {
		var res sim.DCResult
		if err := sess.RunDC(&res); err != nil {
			return err
		}
		for _, n := range nodes {
			fmt.Fprintf(stdout, "v(%s) = %.6g\n", n, res.NodeV(n))
		}
		return nil
	}

	var res sim.Result
	if err := sess.RunTransient(ctx, &res, stop, nil); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "t,%s\n", strings.Join(nodes, ","))
	for i, t := range res.Times {
		fmt.Fprintf(stdout, "%.6g", t)
		for _, n := range nodes {
			fmt.Fprintf(stdout, ",%.6g", res.At(n, i))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// writeStats prints the run's solver-counter delta as a single grep-able
// key=value line.
func writeStats(w io.Writer, c sim.Counters) {
	fmt.Fprintf(w, "stats: dc_solves=%d transients=%d newton_iters=%d linear_fast_path_runs=%d low_rank_runs=%d low_rank_fallbacks=%d transient_steps=%d predictor_seeds=%d\n",
		c.DC, c.Transient, c.NewtonIters, c.LinearFastPathRuns, c.LowRankRuns, c.LowRankFallbacks, c.TransientSteps, c.PredictorSeeds)
}

func probeList(ckt *circuit.Circuit, probe string) ([]string, error) {
	if probe == "" {
		return ckt.NodeNames(), nil
	}
	var out []string
	for _, n := range strings.Split(probe, ",") {
		n = strings.TrimSpace(n)
		if _, ok := ckt.LookupNode(n); !ok {
			return nil, fmt.Errorf("unknown probe node %q", n)
		}
		out = append(out, n)
	}
	return out, nil
}

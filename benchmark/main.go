// Command benchmark measures stanoise end to end and layer by layer.
//
// It runs one seeded workload per process and prints, as the last line of
// its standard output, one JSON object: whether every output check passed,
// the operations attempted and failed, and the metrics with their units.
// Run it from the repository root through the wrapper that builds it:
//
//	bash benchmark/run.sh --workload design-pessimistic --seed 1 --seconds 15 --trace 0
//
// --trace 1 prints the per-layer metrics instead of the end-to-end ones and
// writes a Chrome trace, a CPU profile and the per-layer table under
// --trace-dir. Without --workload every workload runs, each in its own
// child process, --runs times with consecutive seeds, and the results are
// written as one record (--out); --compare A.json B.json judges two
// records against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one workload run, which must end within 180 s even when
// something in the program hangs.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process; empty runs every workload in child processes")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics and writes a trace, a CPU profile and the layer table")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for the files of a traced run")
	runs := fs.Int("runs", 1, "without --workload: runs of each workload, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "without --workload: write the record here instead of standard output")
	compare := fs.String("compare", "", "compare this record with the one named by the argument, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: --compare A.json B.json")
			return 2
		}
		return compareRecords(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		fs.Usage()
		return 2
	}
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		traceDir: *traceDir, workDir: filepath.Join(".bench_build", "work"), scale: fullScale,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		return runAll(ctx, cfg, *runs, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	res, detail, failures := measure(ctx, w, cfg)
	printRun(stdout, w.name, cfg, res, detail, failures)
	if !res.Correct {
		return 1
	}
	return 0
}

// printRun prints a readable table, the sample summaries (one "detail"
// line) and, last, the result line.
func printRun(w io.Writer, name string, cfg config, res result, detail map[string]summary, failures []string) {
	fmt.Fprintf(w, "%s seed %d: %d attempted, %d failed\n", name, cfg.seed, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-26s %14.6g %-9s", n, m.Value, m.Unit)
		if s, ok := detail[n]; ok && s.N > 1 {
			line += fmt.Sprintf(" median of %d, quartiles %.6g .. %.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, f := range failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	if detail != nil {
		b, _ := json.Marshal(detail) // plain floats and ints always marshal
		fmt.Fprintf(w, "detail %s\n", b)
	}
	b, _ := json.Marshal(res) // non-finite values were replaced in measure
	fmt.Fprintf(w, "%s\n", b)
}

// record is what a run of every workload writes: one entry per workload
// run, in the order they ran.
type record struct {
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Result   result             `json:"result"`
	Detail   map[string]summary `json:"detail,omitempty"`
}

// runAll runs every workload in its own child process, so process-wide
// counters and the peak RSS belong to that workload alone.
func runAll(ctx context.Context, cfg config, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rec := record{Seconds: cfg.seconds.Seconds(), Trace: cfg.trace}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	status := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			seed := cfg.seed + uint64(r)
			args := []string{
				"--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(cfg.seconds.Seconds()), "--trace", trace,
				"--trace-dir", cfg.traceDir,
			}
			rr, err := runChild(ctx, self, args, stderr)
			rr.Workload, rr.Seed = w.name, seed
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
				status = 1
			}
			rec.Runs = append(rec.Runs, rr)
			if ctx.Err() != nil {
				return 1
			}
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	b = append(b, '\n')
	if out == "" {
		_, err = stdout.Write(b)
	} else {
		err = os.WriteFile(out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: writing the record: %v\n", err)
		return 1
	}
	return status
}

// runChild runs one workload in a child process, echoing its table to
// stderr and parsing its detail and result lines.
func runChild(ctx context.Context, self string, args []string, stderr io.Writer) (runRecord, error) {
	var rr runRecord
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = io.MultiWriter(&buf, stderr)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "detail "); ok {
			if err := json.Unmarshal([]byte(d), &rr.Detail); err != nil {
				return rr, fmt.Errorf("bad detail line: %w", err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rr.Result); err != nil {
		return rr, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return rr, runErr
}

package main

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestRunDC smoke-tests the -dc path on the committed RC netlist: with the
// step source at its t=0 value (0 V) the whole divider sits at 0 V.
func TestRunDC(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-dc", "testdata/rc.sp"}, &out, &errb); err != nil {
		t.Fatalf("run -dc: %v (stderr: %s)", err, errb.String())
	}
	got := out.String()
	for _, want := range []string{"v(in) = ", "v(out) = "} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunTransientCSV runs the transient path and checks the CSV output
// physically: the RC output must settle to ~1 V within 5 tau.
func TestRunTransientCSV(t *testing.T) {
	var out, errb strings.Builder
	err := run(context.Background(),
		[]string{"-tstop", "5n", "-dt", "5p", "-probe", "out", "testdata/rc.sp"}, &out, &errb)
	if err != nil {
		t.Fatalf("run transient: %v (stderr: %s)", err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "t,out" {
		t.Fatalf("header = %q, want \"t,out\"", lines[0])
	}
	if len(lines) < 100 {
		t.Fatalf("only %d CSV rows", len(lines))
	}
	last := strings.Split(lines[len(lines)-1], ",")
	v, perr := strconv.ParseFloat(last[1], 64)
	if perr != nil {
		t.Fatal(perr)
	}
	if math.Abs(v-1) > 0.01 {
		t.Errorf("settled v(out) = %v, want ~1", v)
	}
}

// TestRunNonlinearFactored runs the inverter-into-RC-line netlist the CI
// smoke runs: the output must fall and settle near 0 V at the far end, and
// the -stats line must show one transient on the factored step loop, with
// Newton iterations (the transistors are nonlinear) and no fallback.
func TestRunNonlinearFactored(t *testing.T) {
	var out, errb strings.Builder
	err := run(context.Background(),
		[]string{"-tstop", "2n", "-dt", "1p", "-probe", "n20", "-stats", "testdata/inv_line.sp"}, &out, &errb)
	if err != nil {
		t.Fatalf("run transient: %v (stderr: %s)", err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "t,n20" || len(lines) < 1000 {
		t.Fatalf("header %q, %d CSV rows", lines[0], len(lines))
	}
	first, perr := strconv.ParseFloat(strings.Split(lines[1], ",")[1], 64)
	if perr != nil {
		t.Fatal(perr)
	}
	last, perr := strconv.ParseFloat(strings.Split(lines[len(lines)-1], ",")[1], 64)
	if perr != nil {
		t.Fatal(perr)
	}
	if first < 1.1 || math.Abs(last) > 0.01 {
		t.Errorf("v(n20) went %v -> %v, want ~1.2 V falling to ~0", first, last)
	}
	stats := map[string]int64{}
	for _, kv := range strings.Fields(strings.TrimPrefix(strings.TrimSpace(errb.String()), "stats: ")) {
		k, v, _ := strings.Cut(kv, "=")
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			t.Fatalf("stats field %q: %v", kv, perr)
		}
		stats[k] = n
	}
	if stats["low_rank_runs"] != 1 || stats["low_rank_fallbacks"] != 0 || stats["newton_iters"] <= 0 ||
		stats["linear_fast_path_runs"] != 0 {
		t.Errorf("stats %v, want low_rank_runs=1, low_rank_fallbacks=0, newton_iters > 0, no linear fast path", stats)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{}, &out, &errb); err != errUsage {
		t.Errorf("no args: err = %v, want errUsage", err)
	}
	if err := run(context.Background(), []string{"testdata/missing.sp"}, &out, &errb); err == nil {
		t.Error("missing netlist should fail")
	}
	if err := run(context.Background(), []string{"-probe", "nope", "testdata/rc.sp"}, &out, &errb); err == nil {
		t.Error("unknown probe node should fail")
	}
	if err := run(context.Background(), []string{"-tstop", "zzz", "testdata/rc.sp"}, &out, &errb); err == nil {
		t.Error("bad -tstop should fail")
	}
}

// TestRunRejectsNonPositiveStep: a transient's zero, negative or
// unparseable step or stop time is a usage error (exit 2) before any
// solve.
func TestRunRejectsNonPositiveStep(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-dt", "0"}, "must be positive"},
		{[]string{"-dt", "-5p"}, "must be positive"},
		{[]string{"-tstop", "0"}, "must be positive"},
		{[]string{"-tstop", "-1n"}, "must be positive"},
		{[]string{"-tstop", "zzz"}, "bad -tstop: invalid value"},
		{[]string{"-tstop", "Inf"}, "bad -tstop: invalid value"},
		{[]string{"-dt", "abc"}, "bad -dt: invalid value"},
		// A value is one number, never netlist text.
		{[]string{"-tstop", "1n\n.end"}, "invalid value"},
		{[]string{"-dt", "1p\nR9 x 0 1"}, "invalid value"},
	} {
		var out, errb strings.Builder
		err := run(context.Background(), append(tc.args, "testdata/rc.sp"), &out, &errb)
		if err != errUsage {
			t.Errorf("%v: err = %v, want errUsage", tc.args, err)
		}
		if out.Len() != 0 || !strings.Contains(errb.String(), tc.reason) {
			t.Errorf("%v: stdout %q, stderr %q; want no output and %q", tc.args, out.String(), errb.String(), tc.reason)
		}
	}
}

func TestRunHelpExitsClean(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out, &errb); err != nil {
		t.Errorf("-h should succeed (exit 0), got %v", err)
	}
	if !strings.Contains(errb.String(), "-probe") {
		t.Errorf("help output missing flag docs:\n%s", errb.String())
	}
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in a few seconds: 4 clusters, 1 corner and
// 10 requests.
var tinyScale = scale{
	clusters: 4, accClusters: 4, variants: 4, corners: "tt", mcCorners: 0, setupReps: 1,
	minDesignPasses: 2, minFarmPasses: 2, minRequests: 10,
}

func tinyConfig(t *testing.T, trace bool) config {
	dir := t.TempDir()
	return config{
		seed: 1, seconds: time.Millisecond, trace: trace, scale: tinyScale,
		traceDir: filepath.Join(dir, "trace"), workDir: filepath.Join(dir, "work"),
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads the metric declarations of BENCHMARK.json at the
// repository root.
func readSpec(t *testing.T) (workloads []declared, endToEnd, perLayer []declared) {
	t.Helper()
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec.Workloads, spec.EndToEnd, spec.PerLayer
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny sizes:
// every check passes and every declared metric prints with its unit.
func TestWorkloadsTiny(t *testing.T) {
	names, endToEnd, perLayer := readSpec(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	for _, n := range names {
		w, ok := workloadByName(n.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", n.Name)
		}
		for _, traced := range []bool{false, true} {
			want, mode := endToEnd, "untraced"
			if traced {
				want, mode = perLayer, "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				cfg := tinyConfig(t, traced)
				res, _, failures := measure(context.Background(), w, cfg)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed (attempted %d, failed %d): %s", res.Attempted, res.Failed, strings.Join(failures, "; "))
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					for _, suffix := range []string{"trace.json", "cpu.pprof", "layers.txt"} {
						path := filepath.Join(cfg.traceDir, w.name+".seed1."+suffix)
						if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
							t.Errorf("traced run left no %s: %v", suffix, err)
						}
					}
				}
			})
		}
	}
}

// TestBadDigestFailsRun shows that a failed output check fails the run.
func TestBadDigestFailsRun(t *testing.T) {
	cfg := tinyConfig(t, false)
	cfg.tamper = func(pass int, digest string) string {
		if pass == 1 {
			return "0" + digest
		}
		return digest
	}
	w, _ := workloadByName("design-pessimistic")
	res, _, failures := measure(context.Background(), w, cfg)
	if res.Correct {
		t.Fatal("a run with a mismatching pass digest was reported correct")
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "digest") {
		t.Fatalf("failures = %q, want one digest mismatch", failures)
	}
}

// TestSummarizeMatchesPython pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("summarize = %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
}

// TestJudge covers the comparator's verdicts.
func TestJudge(t *testing.T) {
	runs := func(vs ...float64) side { return side{values: vs, sum: summarize(vs)} }
	for _, c := range []struct {
		name   string
		a, b   side
		higher bool
		want   string
	}{
		{"unchanged", runs(100, 101, 99, 100), runs(100, 100, 101, 99), true, "unchanged"},
		{"regressed throughput", runs(100, 101, 99, 100), runs(80, 81, 79, 80), true, "regressed"},
		{"regressed latency", runs(10, 10.1, 9.9, 10), runs(12, 12.1, 11.9, 12), false, "regressed"},
		{"improved", runs(100, 101, 99, 100), runs(103, 103.5, 102.5, 103), true, "improved"},
		{"unresolved", runs(50, 150, 80, 120), runs(60, 140, 90, 110), true, "unresolved"},
		{"missing", runs(1), side{}, true, "missing"},
	} {
		if got, _ := judge(c.a, c.b, c.higher, 0.08); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one record's view of a (workload, metric): the metric's value in
// every run of the workload, and the quartiles to judge it by — across runs
// when the record holds several, else across the passes of its one run.
type side struct {
	values []float64
	sum    summary
}

func sideOf(rec record, wl, metric string) side {
	var s side
	var detail map[string]summary
	for _, r := range rec.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
			s.values = append(s.values, m.Value)
			detail = r.Detail
		}
	}
	s.sum = summarize(s.values)
	if d, ok := detail[metric]; ok && len(s.values) == 1 && d.N > 1 {
		s.sum = d
	}
	return s
}

// compareRecords prints one row per (workload, end-to-end metric) with
// each side's median and quartiles, judged against the metric's bound:
// "regressed" when B's median is worse than A's by more than the bound,
// "improved" when better by more than the spread, "unresolved" when either
// side's spread exceeds the bound (unless every B run beats every A run).
// It exits 1 when any row regressed.
func compareRecords(aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b record
	for _, load := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(load.path, load.v); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	status := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			as, bs := sideOf(a, w.Name, m.Name), sideOf(b, w.Name, m.Name)
			verdict, change := judge(as, bs, m.Better == "higher", m.Bound)
			if verdict == "regressed" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%s\n", w.Name, m.Name, m.Unit,
				formatSide(as), formatSide(bs), change*100, m.Bound*100, verdict)
		}
	}
	tw.Flush()
	return status
}

func formatSide(s side) string {
	if s.sum.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", s.sum.Median, s.sum.Q1, s.sum.Q3, s.sum.N)
}

// judge returns the verdict and B's relative change against A.
func judge(a, b side, higherBetter bool, bound float64) (string, float64) {
	if a.sum.N == 0 || b.sum.N == 0 {
		return "missing", 0
	}
	change := ratio(b.sum.Median-a.sum.Median, math.Abs(a.sum.Median))
	worse := change
	if higherBetter {
		worse = -change
	}
	better := func(x, y float64) bool { return (x > y) == higherBetter && x != y }
	allBetter := len(a.values) > 1 && len(b.values) > 1
	for _, x := range b.values {
		for _, y := range a.values {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := math.Max(a.sum.spread(), b.sum.spread())
	switch {
	case allBetter:
		return "improved", change
	case spread > bound:
		return "unresolved", change
	case worse > bound:
		return "regressed", change
	case -worse > spread && -worse > 0:
		return "improved", change
	}
	return "unchanged", change
}

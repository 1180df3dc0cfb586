package sna

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"stanoise/internal/core"
	"stanoise/internal/tech"
)

// cornerDesign is a single small cluster, enough to exercise the corner
// plumbing without the cost of the full sample design.
func cornerDesign() *Design {
	d := sampleDesign()
	d.Clusters = d.Clusters[1:] // the "mild" cluster only
	return d
}

// TestNominalCornerReportBitStable proves Options.Corner at its zero value
// changes nothing: the reports match a corner-less run field for field, and
// the JSON schema carries no "corner" key.
func TestNominalCornerReportBitStable(t *testing.T) {
	d := cornerDesign()
	legacy, err := NewAnalyzer(d, fastOpts(core.Macromodel)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(core.Macromodel)
	opts.Corner, err = tech.CornerByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		legacy[i].ClearTiming()
		nominal[i].ClearTiming()
		if legacy[i] != nominal[i] {
			t.Fatalf("tt report differs from legacy:\n%+v\n%+v", nominal[i], legacy[i])
		}
		b, err := json.Marshal(nominal[i])
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), `"corner"`) {
			t.Fatalf("nominal report JSON grew a corner key: %s", b)
		}
	}
}

// TestCornerChangesAnalysis runs the same cluster at the ss corner and
// checks the corner actually reaches the electrical result: the report is
// tagged, the tag survives a JSON round trip, and the noise numbers differ
// from nominal (a slow, low-VDD card cannot produce identical waveforms).
func TestCornerChangesAnalysis(t *testing.T) {
	d := cornerDesign()
	nominal, err := NewAnalyzer(d, fastOpts(core.Macromodel)).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(core.Macromodel)
	opts.Corner, err = tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ss[0].Corner != "ss" {
		t.Fatalf("ss report tagged %q", ss[0].Corner)
	}
	if ss[0].PeakV == nominal[0].PeakV && ss[0].DPPeakV == nominal[0].DPPeakV {
		t.Fatalf("ss corner produced nominal noise numbers (peak %v)", ss[0].PeakV)
	}

	b, err := json.Marshal(ss[0])
	if err != nil {
		t.Fatal(err)
	}
	var back NetReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Corner != "ss" {
		t.Fatalf("corner tag lost in JSON round trip: %q", back.Corner)
	}
}

// TestSharedPoolsNeverServeNominalBenchesToCorners analyses at tt and then
// at fs on one shared rig pool — the long-lived server setup — and
// requires the fs reports to equal an fs run on a fresh pool. fs keeps the nominal
// card's name and VDD, so a pool key that ignored the corner would serve
// the tt-compiled driver and golden benches to the fs run.
func TestSharedPoolsNeverServeNominalBenchesToCorners(t *testing.T) {
	fs, err := tech.CornerByName("fs")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []core.Method{core.Macromodel, core.Golden} {
		t.Run(method.String(), func(t *testing.T) {
			ctx := context.Background()
			analyze := func(pools *core.RigPool, corner tech.Corner) []NetReport {
				t.Helper()
				opts := fastOpts(method)
				opts.Workers = 1
				opts.RigPools = pools
				opts.Corner = corner
				reports, err := NewAnalyzer(sampleDesign(), opts).Analyze(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for i := range reports {
					reports[i].ClearTiming()
				}
				return reports
			}
			shared := core.NewRigPool(core.RigPoolLimits{})
			analyze(shared, tech.Corner{Name: "tt"})
			got := analyze(shared, fs)
			want := analyze(core.NewRigPool(core.RigPoolLimits{}), fs)
			if len(got) != len(want) {
				t.Fatalf("report counts differ: %d vs %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fs report after a tt run on shared pools differs from a fresh-pool fs run:\n%+v\n%+v", got[i], want[i])
				}
			}
		})
	}
}

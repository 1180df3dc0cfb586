package sna

import (
	"context"
	"testing"

	"stanoise/internal/core"
)

// TestAnalyzerRigPoolReuse asserts the analyzer's compiled-bench pool
// engages and persists: a serial run of the sample design (whose victim
// configurations involve driver-alone benches via the alignment search)
// populates a pool, and a second Analyze on the same analyzer reuses the
// pooled benches instead of recompiling — while reporting exactly the same
// analysis results.
func TestAnalyzerRigPoolReuse(t *testing.T) {
	ctx := context.Background()
	opts := fastOpts(core.Macromodel)
	opts.Workers = 1
	an := NewAnalyzer(sampleDesign(), opts)

	first, err := an.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfterFirst := an.RigPoolStats()
	if missesAfterFirst == 0 {
		t.Fatal("no benches were compiled into the pool on the first run")
	}

	second, err := an.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := an.RigPoolStats()
	if misses != missesAfterFirst {
		t.Fatalf("second run compiled %d new benches, want 0 (pool reuse)", misses-missesAfterFirst)
	}
	if hits == 0 {
		t.Fatal("second run never hit the rig pool")
	}

	if len(first) != len(second) {
		t.Fatalf("report counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		a.ClearTiming()
		b.ClearTiming()
		if a != b {
			t.Fatalf("report %d differs across pooled re-analysis:\n%+v\n%+v", i, a, b)
		}
	}
}

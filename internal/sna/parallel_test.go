package sna

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"stanoise/internal/core"
)

// marshalReports canonicalises reports for byte-for-byte comparison:
// wall-clock timings are the only fields allowed to differ between an
// identical serial and parallel run, so they are cleared first.
func marshalReports(t *testing.T, reports []NetReport) []byte {
	t.Helper()
	for i := range reports {
		reports[i].ClearTiming()
	}
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelMatchesSerial is the concurrency contract: a parallel
// Analyze must produce byte-identical reports, in identical order, to a
// fully serial run of the same design. Run under -race this also shakes
// out data races in the shared characterisation cache and worker pool.
func TestParallelMatchesSerial(t *testing.T) {
	d := GenerateDesign("par", 6)

	serialOpts := fastOpts(core.Macromodel)
	serialOpts.Workers = 1
	serial, err := NewAnalyzer(d, serialOpts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	parOpts := fastOpts(core.Macromodel)
	parOpts.Workers = 8
	par, err := NewAnalyzer(d, parOpts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(par) != len(d.Clusters) {
		t.Fatalf("parallel returned %d reports for %d clusters", len(par), len(d.Clusters))
	}
	for i, r := range par {
		if r.Cluster != d.Clusters[i].Name {
			t.Fatalf("report %d is %q, want %q (order not deterministic)", i, r.Cluster, d.Clusters[i].Name)
		}
	}
	sb, pb := marshalReports(t, serial), marshalReports(t, par)
	if string(sb) != string(pb) {
		t.Errorf("parallel reports differ from serial:\nserial:   %s\nparallel: %s", sb, pb)
	}
}

// TestParallelGoldenMatchesSerial extends the concurrency contract to the
// transistor-level reference: four workers lending golden and driver-alone
// benches from one shared pool at once must report exactly what a serial
// run does. Each topology appears three times in a row, so workers lend
// the same bench key concurrently, and the design is analysed twice on
// the pool, so the second pass runs on benches other workers gave back.
func TestParallelGoldenMatchesSerial(t *testing.T) {
	ctx := context.Background()
	d := GenerateDesign("pgold", 3)
	var clusters []ClusterSpec
	for _, cs := range d.Clusters {
		for k := 0; k < 3; k++ {
			c := cs
			c.Name = fmt.Sprintf("%s_%d", cs.Name, k)
			clusters = append(clusters, c)
		}
	}
	d.Clusters = clusters

	serialOpts := fastOpts(core.Golden)
	serialOpts.Workers = 1
	serial, err := NewAnalyzer(d, serialOpts).Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sb := marshalReports(t, serial)

	parOpts := fastOpts(core.Golden)
	parOpts.Workers = 4
	parOpts.RigPools = core.NewRigPool(core.RigPoolLimits{})
	for pass := 1; pass <= 2; pass++ {
		par, err := NewAnalyzer(d, parOpts).Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if pb := marshalReports(t, par); string(pb) != string(sb) {
			t.Fatalf("pass %d: parallel golden reports on a shared pool differ from serial:\nserial:   %s\nparallel: %s", pass, sb, pb)
		}
	}
	if hits, _ := parOpts.RigPools.Stats(); hits == 0 {
		t.Error("the shared pool never lent a bench twice")
	}
}

// TestParallelDefaultWorkers exercises the GOMAXPROCS default path.
func TestParallelDefaultWorkers(t *testing.T) {
	d := GenerateDesign("dflt", 3)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 0 // normalize() resolves to runtime.GOMAXPROCS(0)
	reports, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
}

// TestParallelFirstErrorPropagation: a failing cluster must surface its
// error from a parallel run, and the pool must not hang or panic.
func TestParallelFirstErrorPropagation(t *testing.T) {
	d := GenerateDesign("err", 6)
	d.Clusters[3].Victim.Cell = "XOR9" // unknown cell: BuildCluster fails

	opts := fastOpts(core.Macromodel)
	opts.Workers = 4
	_, err := NewAnalyzer(d, opts).Analyze(context.Background())
	if err == nil {
		t.Fatal("parallel Analyze swallowed a cluster error")
	}
	if !strings.Contains(err.Error(), "net003") {
		t.Errorf("error does not name the failing cluster: %v", err)
	}
}

// TestSharedCacheAcrossAnalyzers: a cache passed via Options is reused, so
// a second analysis of the same design characterises nothing new.
func TestSharedCacheAcrossAnalyzers(t *testing.T) {
	d := GenerateDesign("warm", 4)
	opts := fastOpts(core.Macromodel)
	opts.Workers = 2

	an1 := NewAnalyzer(d, opts)
	if _, err := an1.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	cold := an1.CacheStats()
	if cold.Misses == 0 {
		t.Fatal("cold run characterised nothing")
	}

	opts.Cache = an1.cache
	an2 := NewAnalyzer(d, opts)
	if _, err := an2.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := an2.CacheStats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm run characterised %d new artefacts", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Errorf("warm run did not hit the cache: cold %+v warm %+v", cold, warm)
	}
}

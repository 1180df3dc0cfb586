package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"stanoise/internal/sna"
)

// Cross-process tests re-execute the test binary as real snaserve-like
// child processes (the re-exec helper pattern): when STANOISE_SERVE_CHILD
// is set, TestMain hosts a server instead of running the suite, so the
// zero-duplicate-characterisation contract is asserted across genuine
// process boundaries — separate memory caches, shared store directory,
// cross-process build leases.
func TestMain(m *testing.M) {
	if os.Getenv("STANOISE_SERVE_CHILD") != "" {
		serveChildMain()
		return
	}
	os.Exit(m.Run())
}

// serveChildMain hosts one analysis server on a loopback port, announces
// the address on stdout, and serves until the parent closes stdin.
func serveChildMain() {
	opts := fastAnalysis()
	opts.CacheDir = os.Getenv("STANOISE_SERVE_CACHE_DIR")
	srv := NewServer(Config{Analysis: opts})
	if err := srv.StoreError(); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR http://%s\n", ln.Addr())
	go http.Serve(ln, srv)
	io.Copy(io.Discard, os.Stdin) // run until the parent closes our stdin
}

// startServeChild launches a child server process sharing cacheDir and
// returns its base URL. The child dies when the test ends.
func startServeChild(t *testing.T, cacheDir string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STANOISE_SERVE_CHILD=1",
		"STANOISE_SERVE_CACHE_DIR="+cacheDir,
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatalf("server child exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "ADDR ") {
		t.Fatalf("server child: %s", line)
	}
	return strings.TrimPrefix(line, "ADDR ")
}

// childStats fetches a child's /statsz document.
func childStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrossProcessZeroDuplicateCharacterization is the headline
// acceptance test of the cross-process build leases: two cold server
// processes sharing one cache directory, hit concurrently with the same
// design, must perform each transistor-level characterisation exactly
// once *between them*. The proof is the engine's own solve counters: the
// two processes' DC+transient totals must sum to exactly what a single
// cold server (fresh directory) spends — zero duplicates — while both
// processes stream identical verdicts. Requests disable the alignment
// search because it re-simulates the victim driver transistor-level on
// every analysis — per-run evaluation work, not cacheable
// characterisation, which would offset the ledger by a constant.
func TestCrossProcessZeroDuplicateCharacterization(t *testing.T) {
	d := sna.SampleDesign()
	body := requestBody(t, d, map[string]any{"deterministic": true, "align": false})

	shared := t.TempDir()
	urls := []string{startServeChild(t, shared), startServeChild(t, shared)}

	verdicts := make([]map[string]string, len(urls))
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			verdicts[i] = map[string]string{}
			for _, line := range bytes.Split(raw, []byte("\n")) {
				line = bytes.TrimSpace(line)
				if len(line) == 0 {
					continue
				}
				var rec rawRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					errs[i] = fmt.Errorf("bad record %q: %w", line, err)
					return
				}
				if rec.Type != "report" {
					continue
				}
				var rep sna.NetReport
				if err := json.Unmarshal(rec.Report, &rep); err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				json.Compact(&buf, rec.Report)
				verdicts[i][rep.Cluster] = buf.String()
			}
		}(i, url)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}

	// Identical verdicts from both processes.
	if len(verdicts[0]) != len(d.Clusters) || len(verdicts[1]) != len(d.Clusters) {
		t.Fatalf("verdict counts %d/%d, want %d each", len(verdicts[0]), len(verdicts[1]), len(d.Clusters))
	}
	for cl, v := range verdicts[0] {
		if verdicts[1][cl] != v {
			t.Errorf("cluster %s verdicts diverged between processes:\n%s\n%s", cl, v, verdicts[1][cl])
		}
	}

	// The solve-count ledger: a third, fresh-directory server measures the
	// full cold cost of the design; the two shared-directory servers must
	// have split exactly that between them (macromodel evaluation never
	// touches the transistor engine, so sim counters ARE characterisation).
	baselineURL := startServeChild(t, t.TempDir())
	resp, err := http.Post(baselineURL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	a, b := childStats(t, urls[0]), childStats(t, urls[1])
	base := childStats(t, baselineURL)
	sum := a.Sim.DC + a.Sim.Transient + b.Sim.DC + b.Sim.Transient
	cold := base.Sim.DC + base.Sim.Transient
	if cold == 0 {
		t.Fatal("baseline server performed no solves; the ledger is broken")
	}
	if sum != cold {
		t.Errorf("shared-store servers spent %d solves combined, single cold server spends %d — %+d duplicated",
			sum, cold, sum-cold)
	}
	// And the leases must have actually arbitrated: every artefact built
	// by one process was awaited (contended) or disk-hit by the other.
	if a.Leases == nil || b.Leases == nil {
		t.Fatal("statsz carries no lease stats despite a persistent store")
	}
	if a.Leases.Acquired+b.Leases.Acquired == 0 {
		t.Error("no build leases were ever acquired")
	}
	if a.Cache.DiskHits+b.Cache.DiskHits == 0 {
		t.Error("neither process was served from the shared store")
	}
	// Both shared-directory processes count the whole store — every
	// writer's entries — which holds exactly what the cold baseline built.
	if a.StoreEntries == nil || b.StoreEntries == nil || base.StoreEntries == nil {
		t.Fatal("statsz carries no store_entries despite a persistent store")
	}
	if *base.StoreEntries == 0 || *a.StoreEntries != *base.StoreEntries || *b.StoreEntries != *base.StoreEntries {
		t.Errorf("store_entries: shared %d and %d, fresh-directory baseline %d; want all equal and non-zero",
			*a.StoreEntries, *b.StoreEntries, *base.StoreEntries)
	}
}

// TestCrossProcessWarmStartup asserts the second-order payoff: a server
// started against the directory a previous process populated performs
// ZERO solves of its own — every artefact is a disk hit.
func TestCrossProcessWarmStartup(t *testing.T) {
	d := sna.SampleDesign()
	body := requestBody(t, d, map[string]any{"deterministic": true, "align": false})
	shared := t.TempDir()

	cold := startServeChild(t, shared)
	resp, err := http.Post(cold+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	warm := startServeChild(t, shared)
	resp, err = http.Post(warm+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := childStats(t, warm)
	if n := st.Sim.DC + st.Sim.Transient; n != 0 {
		t.Errorf("warm server performed %d transistor-level solves, want 0", n)
	}
	if st.Cache.DiskHits == 0 || st.Cache.DiskHits != st.Cache.Misses {
		t.Errorf("warm server cache %+v, want every miss served from disk", st.Cache)
	}
}

// waitForHTTP is a tiny readiness helper for child servers (unused today
// because children announce readiness by printing their address, but kept
// for future endpoints that come up asynchronously).
func waitForHTTP(t *testing.T, url string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy: %v", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package sim

import (
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// counterKeys is the exact wire key set of a Counters block — the contract
// every /statsz sim block, per-corner block and libchar -stats-out corner
// entry is checked against.
var counterKeys = []string{
	"dc", "engine_runs", "engine_steps", "linear_fast_path_runs", "low_rank_fallbacks", "low_rank_runs",
	"newton_iters", "nl_stamp_evals", "predictor_fallbacks", "predictor_seeds",
	"transient", "transient_steps", "warm_fallbacks", "warm_starts",
}

// TestCountersJSONKeys pins the wire names of the one counter type.
func TestCountersJSONKeys(t *testing.T) {
	b, err := json.Marshal(Counters{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, counterKeys) {
		t.Fatalf("Counters marshals keys %v, want %v", keys, counterKeys)
	}
}

// TestCountersAddSubCoverEveryField guards the field-by-field arithmetic:
// a counter added to the struct but forgotten in Add or Sub would silently
// drop out of every total.
func TestCountersAddSubCoverEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(100 + i))
		bv.Field(i).SetInt(int64(1 + i))
	}
	sum, diff := a.Add(b), a.Sub(b)
	sv, dv := reflect.ValueOf(sum), reflect.ValueOf(diff)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := sv.Field(i).Int(), int64(101+2*i); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if got := dv.Field(i).Int(); got != 99 {
			t.Errorf("Sub: %s = %d, want 99", name, got)
		}
	}
}

// TestRunPublishesOncePerCall checks the session is the only counting site:
// the process totals advance by exactly the session's own delta, including
// for a run that fails validation.
func TestRunPublishesOncePerCall(t *testing.T) {
	sess, err := NewSession(Compile(optTestCircuit()), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	before, own := Snapshot(), sess.Stats()
	if _, err := dcOf(sess); err != nil {
		t.Fatal(err)
	}
	if _, err := transientOf(nil, sess, 50e-12); err != nil {
		t.Fatal(err)
	}
	if _, err := transientOf(nil, sess, -1); err == nil {
		t.Fatal("negative stop time accepted")
	}
	d := Snapshot().Sub(before)
	if d != sess.Stats().Sub(own) {
		t.Fatalf("process totals moved by %+v, session by %+v", d, sess.Stats().Sub(own))
	}
	if d.DC != 2 || d.Transient != 2 {
		t.Fatalf("counted %d DC and %d transient solves, want 2 and 2 (the failed run counts)", d.DC, d.Transient)
	}
}

// TestConcurrentSessionsFoldExactly runs sessions on several goroutines at
// once: the process totals must advance by exactly the sum of their own
// counters (run it under -race).
func TestConcurrentSessionsFoldExactly(t *testing.T) {
	prog := Compile(optTestCircuit())
	const workers = 4
	stats := make([]Counters, workers)
	before := Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := NewSession(prog, 1e-12)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 5; i++ {
				if _, err := transientOf(nil, sess, 20e-12); err != nil {
					t.Error(err)
					return
				}
			}
			stats[w] = sess.Stats()
		}()
	}
	wg.Wait()
	var sum Counters
	for _, s := range stats {
		sum = sum.Add(s)
	}
	if d := Snapshot().Sub(before); d != sum || sum.Transient != 5*workers {
		t.Fatalf("process totals moved by %+v, sessions counted %+v", d, sum)
	}
}

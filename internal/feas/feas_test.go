package feas

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func ps(v float64) float64 { return v * 1e-12 }

func win(early, late float64) Window { return Window{Early: ps(early), Late: ps(late)} }

// solve is the test helper: a Solve that must succeed.
func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveUnconstrained(t *testing.T) {
	p := &Problem{Windows: []Window{Unbounded(), Unbounded(), Unbounded()}}
	sol := solve(t, p)
	if sol.Total != 7 || sol.Feasible != 7 || sol.Pruned != 0 {
		t.Fatalf("census = %d/%d/%d, want 7/7/0", sol.Total, sol.Feasible, sol.Pruned)
	}
	if len(sol.Maximal) != 1 || sol.Maximal[0] != 0b111 {
		t.Fatalf("maximal = %v, want [0b111]", sol.Maximal)
	}
	if sol.Empty() || len(sol.Dead()) != 0 {
		t.Fatalf("unconstrained problem reported empty/dead")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	sol := solve(t, &Problem{})
	if sol.Total != 0 || sol.Feasible != 0 || len(sol.Maximal) != 0 {
		t.Fatalf("zero-aggressor census = %+v", sol)
	}
	if sol.Empty() {
		t.Fatal("a problem with no aggressors is trivially satisfiable, not empty")
	}
}

func TestSolveMutex(t *testing.T) {
	// Three aggressors, 0 and 1 mutually exclusive.
	p := &Problem{
		Windows: []Window{Unbounded(), Unbounded(), Unbounded()},
		Mutex:   [][]int{{0, 1}},
	}
	sol := solve(t, p)
	// Pruned: {0,1} and {0,1,2}.
	if sol.Feasible != 5 || sol.Pruned != 2 {
		t.Fatalf("census = %d feasible / %d pruned, want 5/2", sol.Feasible, sol.Pruned)
	}
	want := []Set{0b101, 0b110}
	if !reflect.DeepEqual(sol.Maximal, want) {
		t.Fatalf("maximal = %v, want %v", sol.Maximal, want)
	}
}

func TestSolveImplication(t *testing.T) {
	// 0 -> 1: any set with 0 must contain 1.
	p := &Problem{
		Windows:      []Window{Unbounded(), Unbounded()},
		Implications: []Implication{{If: 0, Then: 1}},
	}
	sol := solve(t, p)
	// {0} pruned; {1}, {0,1} feasible.
	if sol.Feasible != 2 || sol.Pruned != 1 {
		t.Fatalf("census = %d/%d, want 2 feasible, 1 pruned", sol.Feasible, sol.Pruned)
	}
	if len(sol.Maximal) != 1 || sol.Maximal[0] != 0b11 {
		t.Fatalf("maximal = %v, want [0b11]", sol.Maximal)
	}
}

func TestSolveTemporalOverlap(t *testing.T) {
	// Windows of 0 and 1 are disjoint; 2 overlaps both.
	p := &Problem{Windows: []Window{win(0, 100), win(300, 400), win(50, 350)}}
	sol := solve(t, p)
	// Infeasible: {0,1} and {0,1,2}.
	if sol.Pruned != 2 {
		t.Fatalf("pruned = %d, want 2", sol.Pruned)
	}
	want := []Set{0b101, 0b110}
	if !reflect.DeepEqual(sol.Maximal, want) {
		t.Fatalf("maximal = %v, want %v", sol.Maximal, want)
	}
}

// TestSolveMaximalNotDownwardClosed pins the subtle case: with a mutual
// implication cycle, single-element supersets of a feasible set can be
// infeasible while a two-element superset is feasible, so naive
// "no feasible m|bit" maximality would be wrong.
func TestSolveMaximalNotDownwardClosed(t *testing.T) {
	p := &Problem{
		Windows:      []Window{Unbounded(), Unbounded(), Unbounded()},
		Implications: []Implication{{If: 1, Then: 2}, {If: 2, Then: 1}},
	}
	sol := solve(t, p)
	// Feasible: {0}, {1,2}, {0,1,2}. {0} must not be reported maximal.
	if sol.Feasible != 3 {
		t.Fatalf("feasible = %d, want 3", sol.Feasible)
	}
	if len(sol.Maximal) != 1 || sol.Maximal[0] != 0b111 {
		t.Fatalf("maximal = %v, want [0b111]", sol.Maximal)
	}
}

func TestCheckInfeasibleSpecs(t *testing.T) {
	// Implication into a mutex partner: 0 -> 1 with mutex{0,1} kills 0.
	p := &Problem{
		Windows:      []Window{Unbounded(), Unbounded()},
		Mutex:        [][]int{{0, 1}},
		Implications: []Implication{{If: 0, Then: 1}},
	}
	sol, err := p.Check()
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Empty || !reflect.DeepEqual(inf.Dead, []int{0}) {
		t.Fatalf("Check = %v (sol %+v), want dead-aggressor error for 0", err, sol)
	}

	// Mutual implication across a mutex: nothing can switch at all.
	p = &Problem{
		Windows:      []Window{Unbounded(), Unbounded()},
		Mutex:        [][]int{{0, 1}},
		Implications: []Implication{{If: 0, Then: 1}, {If: 1, Then: 0}},
	}
	if _, err := p.Check(); !errors.As(err, &inf) || !inf.Empty {
		t.Fatalf("Check = %v, want empty-scenario error", err)
	}

	// A satisfiable system passes Check.
	p = &Problem{Windows: []Window{win(0, 100), win(50, 150)}}
	if _, err := p.Check(); err != nil {
		t.Fatalf("Check on satisfiable system: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
	}{
		{"empty window", Problem{Windows: []Window{win(100, 50)}}},
		{"nan window", Problem{Windows: []Window{{Early: math.NaN(), Late: 1}}}},
		{"mutex out of range", Problem{Windows: []Window{Unbounded()}, Mutex: [][]int{{0, 1}}}},
		{"empty mutex group", Problem{Windows: []Window{Unbounded()}, Mutex: [][]int{{}}}},
		{"implication out of range", Problem{Windows: []Window{Unbounded()}, Implications: []Implication{{If: 0, Then: 3}}}},
		{"too many aggressors", Problem{Windows: make([]Window, MaxAggressors+1)}},
	}
	for _, tc := range cases {
		if _, err := tc.p.Solve(); err == nil {
			t.Errorf("%s: Solve accepted an invalid problem", tc.name)
		}
	}
}

func TestAlignWindowsExactOverlap(t *testing.T) {
	// Both members can place their peak at the preferred target: classical
	// alignment is reproduced exactly.
	windows := []Window{win(100, 400), win(150, 500)}
	delays := []float64{ps(120), ps(80)}
	prefer := ps(350)
	starts := AlignWindows(windows, delays, prefer)
	for i := range starts {
		if got := starts[i] + delays[i]; math.Abs(got-prefer) > 1e-18 {
			t.Errorf("member %d peaks at %g, want %g", i, got, prefer)
		}
		if starts[i] < windows[i].Early || starts[i] > windows[i].Late {
			t.Errorf("member %d start %g outside window %+v", i, starts[i], windows[i])
		}
	}
}

func TestAlignWindowsClampedPrefer(t *testing.T) {
	// The unconstrained target is later than the windows allow: the common
	// target clamps to the latest achievable instant.
	windows := []Window{win(100, 200), win(120, 220)}
	delays := []float64{ps(50), ps(50)}
	starts := AlignWindows(windows, delays, ps(1000))
	if got := starts[0]; math.Abs(got-ps(200)) > 1e-18 {
		t.Errorf("start[0] = %g, want clamp at late bound %g", got, ps(200))
	}
	if got := starts[1]; math.Abs(got-ps(200)) > 1e-18 {
		t.Errorf("start[1] = %g, want %g (common peak at 250 ps)", got, ps(200))
	}
}

func TestAlignWindowsDisjointPeaks(t *testing.T) {
	// Peak intervals cannot meet: the sweep settles between them, each
	// member clamped to its nearest bound — deterministically.
	windows := []Window{win(0, 100), win(300, 400)}
	delays := []float64{0, 0}
	starts := AlignWindows(windows, delays, ps(50))
	if starts[0] != ps(100) || starts[1] != ps(300) {
		t.Fatalf("starts = %v, want each clamped toward the gap", starts)
	}
	// Determinism: same inputs, same output.
	again := AlignWindows(windows, delays, ps(50))
	if !reflect.DeepEqual(starts, again) {
		t.Fatalf("AlignWindows not deterministic: %v vs %v", starts, again)
	}
}

func TestAlignWindowsAllUnboundedFallsBackToClassicTarget(t *testing.T) {
	// Degenerate half-open windows (Early = +Inf / Late = −Inf) force the
	// no-common-instant branch with zero finite endpoints: the sweep has an
	// empty candidate set and must fall back to the classic prefer target
	// instead of degenerating. The unconstrained member pins the fallback:
	// it must peak exactly at prefer, as in the classical alignment.
	windows := []Window{
		Unbounded(),
		{Early: math.Inf(1), Late: math.Inf(1)},
		{Early: math.Inf(-1), Late: math.Inf(-1)},
	}
	delays := []float64{ps(40), 0, 0}
	prefer := ps(250)
	starts := AlignWindows(windows, delays, prefer)
	if got := starts[0] + delays[0]; math.Abs(got-prefer) > 1e-18 {
		t.Errorf("unconstrained member peaks at %g, want classic target %g", got, prefer)
	}
	// The degenerate members clamp to their own (infinite) bounds.
	if !math.IsInf(starts[1], 1) || !math.IsInf(starts[2], -1) {
		t.Errorf("degenerate members = %g, %g, want +Inf, -Inf", starts[1], starts[2])
	}
	// Determinism: same inputs, same output.
	again := AlignWindows(windows, delays, prefer)
	if !reflect.DeepEqual(starts, again) {
		t.Fatalf("AlignWindows not deterministic: %v vs %v", starts, again)
	}
}

func TestAlignWindowsUnboundedMembers(t *testing.T) {
	// Unbounded members follow the target wherever it lands.
	windows := []Window{Unbounded(), win(200, 300)}
	delays := []float64{ps(10), ps(20)}
	starts := AlignWindows(windows, delays, ps(700))
	// Target clamps to 320 ps (late bound + delay of the bounded member).
	if got := starts[1]; math.Abs(got-ps(300)) > 1e-18 {
		t.Errorf("bounded start = %g, want %g", got, ps(300))
	}
	if got := starts[0] + delays[0]; math.Abs(got-(ps(300)+delays[1])) > 1e-18 {
		t.Errorf("unbounded member peak = %g, want to match bounded peak %g", got, ps(300)+delays[1])
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	before := Snapshot()
	sol := solve(t, &Problem{
		Windows: []Window{Unbounded(), Unbounded()},
		Mutex:   [][]int{{0, 1}},
	})
	Record(sol, len(sol.Maximal))
	d := Snapshot().Sub(before)
	if d.Clusters != 1 || d.Combos != 3 || d.Feasible != 2 || d.Pruned != 1 || d.Scenarios != 2 {
		t.Fatalf("counter delta = %+v", d)
	}
}

// Package feas implements the aggressor-correlation feasibility subsystem:
// a FRAME-style constraint solver (timing windows plus logic correlation,
// after arXiv:1502.02236) that decides which combinations of a cluster's
// aggressors can actually switch together on silicon, and where inside
// their switching windows the realizable worst-case alignment sits.
//
// The classical worst case aligns every aggressor's noise peak at one
// instant with no regard for when — or whether — those nets can switch
// together. That is sound but doubly pessimistic: it reports violations no
// input vector can produce, and it spends engine solves evaluating them.
// This package prunes the scenario space *before* evaluation:
//
//   - temporal constraints: each aggressor carries a switching Window
//     [Early, Late] bounding when its input ramp may start; a combination
//     is realizable only if all members' windows share a common instant,
//   - logic constraints: mutual-exclusion groups (at most one member
//     switches — e.g. one-hot buses) and implication pairs (if i switches,
//     j switches too — e.g. differential pairs / shared enables).
//
// Solve enumerates the non-empty aggressor subsets, classifies each as
// feasible or pruned, and returns the *maximal* feasible subsets — the
// only ones worth simulating, since a sub-scenario can never produce more
// noise than its superset evaluated at the same constrained alignment
// budget. AlignWindows then picks, for one subset, the common peak target
// inside the windows that minimises total peak spread — the optimal
// alignment *within* the windows rather than the unconstrained one.
//
// The package is pure constraint arithmetic over seconds-denominated
// windows: it knows nothing about cells, waveforms or engines, so the sna
// layer can validate designs against it cheaply (see Problem.Check) and
// the analyzer can consult it before spending any evaluation work.
package feas

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Window bounds when one aggressor's input ramp may start, in seconds of
// cluster time. A zero-value Window is *not* unbounded — use Unbounded()
// for an unconstrained aggressor (Early = −Inf, Late = +Inf).
type Window struct {
	// Early is the earliest admissible ramp start time (s).
	Early float64
	// Late is the latest admissible ramp start time (s).
	Late float64
}

// Unbounded returns the window admitting any switching time.
func Unbounded() Window { return Window{Early: math.Inf(-1), Late: math.Inf(1)} }

// Clamp returns t limited to the window.
func (w Window) Clamp(t float64) float64 {
	if t < w.Early {
		return w.Early
	}
	if t > w.Late {
		return w.Late
	}
	return t
}

// Implication is a logic-correlation pair: whenever aggressor If switches,
// aggressor Then switches in the same scenario (indices into
// Problem.Windows).
type Implication struct {
	// If is the antecedent aggressor index.
	If int
	// Then is the consequent aggressor index.
	Then int
}

// MaxAggressors bounds the per-cluster subset enumeration (2^N scenarios).
// Sixteen aggressors — 65536 combinations — is far beyond any physical
// coupling neighbourhood; Solve rejects larger problems with a typed error
// instead of silently burning memory.
const MaxAggressors = 16

// Problem is one cluster's feasibility system: a window per aggressor plus
// the logic constraints over them.
type Problem struct {
	// Windows holds one switching window per aggressor, in declaration
	// order. Use Unbounded() for aggressors without timing information.
	Windows []Window
	// Mutex lists mutual-exclusion groups: at most one member of each group
	// switches in any scenario.
	Mutex [][]int
	// Implications lists implication pairs (see Implication).
	Implications []Implication
}

// Set is a bitmask subset of a problem's aggressors: bit i set means
// aggressor i switches in the scenario.
type Set uint64

// Has reports whether aggressor i is in the set.
func (s Set) Has(i int) bool { return s&(1<<i) != 0 }

// Count returns the number of aggressors in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Indices returns the member indices in ascending order.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for s != 0 {
		i := bits.TrailingZeros64(uint64(s))
		out = append(out, i)
		s &^= 1 << i
	}
	return out
}

// Solution is the outcome of solving one Problem: the combination census
// and the maximal feasible scenarios worth evaluating.
type Solution struct {
	// N is the aggressor count of the solved problem.
	N int
	// Total is the number of non-empty aggressor combinations (2^N − 1).
	Total int64
	// Feasible counts combinations every constraint admits.
	Feasible int64
	// Pruned counts combinations ruled out (Total − Feasible) — the
	// scenarios the classical worst case implicitly evaluates and this
	// subsystem never has to.
	Pruned int64
	// Maximal lists the feasible subsets with no feasible strict superset,
	// ordered by descending size then ascending mask — the deterministic
	// evaluation order of the analyzer's realistic mode.
	Maximal []Set
}

// Empty reports whether a problem with aggressors admits no scenario at
// all — the signature of an over-constrained (self-contradictory) spec.
func (s *Solution) Empty() bool { return s.N > 0 && s.Feasible == 0 }

// Dead returns the aggressors that appear in no feasible combination:
// nets the constraints say can never switch. A dead aggressor is almost
// always a spec error (e.g. an implication cycle crossing a mutex group),
// which is why Check reports them.
func (s *Solution) Dead() []int {
	var union Set
	for _, m := range s.Maximal {
		union |= m
	}
	var dead []int
	for i := 0; i < s.N; i++ {
		if !union.Has(i) {
			dead = append(dead, i)
		}
	}
	return dead
}

// Validate checks the constraint system's internal consistency: window
// bounds ordered and not NaN, constraint indices in range.
func (p *Problem) Validate() error {
	n := len(p.Windows)
	if n > MaxAggressors {
		return fmt.Errorf("feas: %d aggressors exceeds the %d-aggressor enumeration bound", n, MaxAggressors)
	}
	for i, w := range p.Windows {
		if math.IsNaN(w.Early) || math.IsNaN(w.Late) {
			return fmt.Errorf("feas: window %d has NaN bounds", i)
		}
		if w.Early > w.Late {
			return fmt.Errorf("feas: window %d is empty (early %g > late %g)", i, w.Early, w.Late)
		}
	}
	for gi, g := range p.Mutex {
		if len(g) == 0 {
			return fmt.Errorf("feas: mutex group %d is empty", gi)
		}
		for _, i := range g {
			if i < 0 || i >= n {
				return fmt.Errorf("feas: mutex group %d references aggressor %d (have %d)", gi, i, n)
			}
		}
	}
	for ii, imp := range p.Implications {
		if imp.If < 0 || imp.If >= n || imp.Then < 0 || imp.Then >= n {
			return fmt.Errorf("feas: implication %d references aggressor %d->%d (have %d)", ii, imp.If, imp.Then, n)
		}
	}
	return nil
}

// feasibleSet decides one subset against every constraint. mutexMasks is
// the precomputed bitmask form of p.Mutex.
func (p *Problem) feasibleSet(s Set, mutexMasks []Set) bool {
	for _, g := range mutexMasks {
		if (s & g).Count() > 1 {
			return false
		}
	}
	for _, imp := range p.Implications {
		if s.Has(imp.If) && !s.Has(imp.Then) {
			return false
		}
	}
	// Temporal: all members' windows must share a common instant.
	// Unbounded windows never constrain the overlap.
	lo, hi := math.Inf(-1), math.Inf(1)
	for _, i := range s.Indices() {
		w := p.Windows[i]
		if w.Early > lo {
			lo = w.Early
		}
		if w.Late < hi {
			hi = w.Late
		}
	}
	return lo <= hi
}

// Solve enumerates every non-empty aggressor combination, classifies it
// against the constraints, and extracts the maximal feasible scenarios.
// The result is fully deterministic: same problem, same solution, same
// ordering.
func (p *Problem) Solve() (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Windows)
	sol := &Solution{N: n}
	if n == 0 {
		return sol, nil
	}
	mutexMasks := make([]Set, len(p.Mutex))
	for gi, g := range p.Mutex {
		var m Set
		for _, i := range g {
			m |= 1 << i
		}
		mutexMasks[gi] = m
	}
	total := Set(1) << n
	feasible := make([]bool, total)
	masks := make([]Set, 0, total-1)
	for m := Set(1); m < total; m++ {
		if p.feasibleSet(m, mutexMasks) {
			feasible[m] = true
			sol.Feasible++
			masks = append(masks, m)
		}
	}
	sol.Total = int64(total) - 1
	sol.Pruned = sol.Total - sol.Feasible

	// Maximal extraction. Feasibility is not downward-closed here (an
	// implication consequent cannot be dropped alone), so the correct test
	// is subset-of-an-already-extracted-maximal, scanning in descending
	// size: the first time a set is seen that no larger feasible set
	// contains, it is maximal.
	sort.Slice(masks, func(i, j int) bool {
		ci, cj := masks[i].Count(), masks[j].Count()
		if ci != cj {
			return ci > cj
		}
		return masks[i] < masks[j]
	})
	for _, m := range masks {
		covered := false
		for _, mx := range sol.Maximal {
			if m&mx == m {
				covered = true
				break
			}
		}
		if !covered {
			sol.Maximal = append(sol.Maximal, m)
		}
	}
	return sol, nil
}

// InfeasibleError reports a constraint system that is self-contradictory:
// it either admits no scenario at all, or strands aggressors that can
// never switch. Design validation surfaces it as a typed rejection before
// any analysis runs.
type InfeasibleError struct {
	// Empty is set when no non-empty combination is feasible.
	Empty bool
	// Dead lists aggressor indices that appear in no feasible combination.
	Dead []int
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	if e.Empty {
		return "feas: constraints admit no feasible aggressor scenario"
	}
	return fmt.Sprintf("feas: aggressors %v can never switch under the constraints", e.Dead)
}

// Check solves the problem and additionally rejects self-contradictory
// specs: a non-trivial problem whose constraints admit no scenario, or one
// that strands aggressors (see InfeasibleError). The solution is returned
// either way so callers can report the census alongside the rejection.
func (p *Problem) Check() (*Solution, error) {
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Empty() {
		return sol, &InfeasibleError{Empty: true}
	}
	if dead := sol.Dead(); len(dead) > 0 {
		return sol, &InfeasibleError{Dead: dead}
	}
	return sol, nil
}

// intervalDist is the distance from t to the interval [lo, hi] (zero
// inside it).
func intervalDist(t, lo, hi float64) float64 {
	switch {
	case t < lo:
		return lo - t
	case t > hi:
		return t - hi
	}
	return 0
}

// AlignWindows picks the realizable worst-case alignment of one feasible
// subset: a common peak target time and, per member, the input-ramp start
// time inside its window that brings its peak closest to the target.
//
// windows[i] and delays[i] describe subset member i: its switching window
// and its peak delay — how long after the ramp start its noise contribution
// peaks at the victim (from the analyzer's per-aggressor timing runs; pass
// zeros when no timing information exists and the windows themselves are
// aligned). prefer is the unconstrained worst-case peak time (the classic
// alignment target); when the windows allow it, it is used verbatim, so an
// unconstrained subset reproduces the classical alignment exactly.
//
// When the peak-time intervals [Early+delay, Late+delay] share no common
// instant, the target sweeps the finite interval endpoints — the candidate
// set containing the optimum of the piecewise-linear total-spread objective
// — and picks the one minimising the summed distance of each member's
// achievable peak to the target (ties go to the earliest candidate). If
// every endpoint is unbounded (half-open degenerate windows such as
// Early = +Inf or Late = −Inf leave nothing finite to sweep), the target
// falls back to the classic prefer instant. The result is deterministic
// in all cases.
func AlignWindows(windows []Window, delays []float64, prefer float64) []float64 {
	n := len(windows)
	starts := make([]float64, n)
	lo, hi := math.Inf(-1), math.Inf(1)
	for i, w := range windows {
		if l := w.Early + delays[i]; l > lo {
			lo = l
		}
		if h := w.Late + delays[i]; h < hi {
			hi = h
		}
	}
	var target float64
	if lo <= hi {
		// Exact simultaneous alignment is achievable; stay as close to the
		// unconstrained worst case as the windows allow.
		target = prefer
		if target < lo {
			target = lo
		}
		if target > hi {
			target = hi
		}
	} else {
		// No common peak instant: minimise total peak spread over the
		// finite endpoints (the objective is piecewise linear, so its
		// minimum sits on an endpoint). lo > hi does NOT guarantee a finite
		// endpoint: windows degenerate in the infinite direction (Early =
		// +Inf, or Late = −Inf) force the branch with nothing finite to
		// sweep, so the classic prefer target is the explicit fallback.
		cands := make([]float64, 0, 2*n)
		for i, w := range windows {
			if !math.IsInf(w.Early, 0) {
				cands = append(cands, w.Early+delays[i])
			}
			if !math.IsInf(w.Late, 0) {
				cands = append(cands, w.Late+delays[i])
			}
		}
		if len(cands) == 0 {
			// Every endpoint unbounded: the sweep would degenerate to an
			// empty candidate set. Fall back deterministically to the
			// classic alignment target; each member still clamps into its
			// own window below.
			target = prefer
		} else {
			sort.Float64s(cands)
			best := math.Inf(1)
			// Seed with the classic target so a sweep whose every cost is
			// +Inf (a member infinite in one direction) also degrades to it.
			target = prefer
			for _, c := range cands {
				cost := 0.0
				for i, w := range windows {
					cost += intervalDist(c, w.Early+delays[i], w.Late+delays[i])
				}
				if cost < best {
					best, target = cost, c
				}
			}
		}
	}
	for i, w := range windows {
		starts[i] = w.Clamp(target - delays[i])
	}
	return starts
}

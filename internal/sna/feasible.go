package sna

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/core"
	"stanoise/internal/feas"
	"stanoise/internal/nrc"
)

// This file is the sna-side of the feasibility filter: it translates a
// ClusterSpec's correlation metadata (names, windows, mutex groups,
// implications) into a feas.Problem, drives the per-scenario evaluations,
// and folds the outcomes into the FeasReport attached to each NetReport.

// FeasReport is the per-cluster outcome of the feasibility filter: the
// combination census and the bounded-realistic noise result, reported next
// to the classic worst case. Its JSON form is part of the stable report
// schema; like MarginV, RealisticMarginV is +Inf for unfailable nets and
// serialised as null.
type FeasReport struct {
	// Combos is the number of non-empty aggressor combinations (2^N − 1).
	Combos int64 `json:"combos"`
	// Feasible counts combinations the constraints admit.
	Feasible int64 `json:"feasible"`
	// Pruned counts combinations ruled out — simulation scenarios the
	// classical worst case implicitly covers and the filter discards.
	Pruned int64 `json:"pruned"`
	// Scenarios is the number of maximal feasible scenarios considered.
	Scenarios int `json:"scenarios"`
	// Scenario names the aggressors of the governing (worst realistic)
	// scenario, in declaration order.
	Scenario []string `json:"scenario,omitempty"`

	// RealisticPeakV is the governing scenario's noise peak at the victim
	// receiver input; RealisticWidthPs its width, RealisticDPPeakV its peak
	// at the victim driving point.
	RealisticPeakV   float64 `json:"realistic_peak_v"`
	RealisticWidthPs float64 `json:"realistic_width_ps"`
	RealisticDPPeakV float64 `json:"realistic_dp_peak_v"`
	// RealisticFails and RealisticMarginV judge the governing scenario
	// against the same NRC as the classic result. The margin is floored at
	// the classic MarginV: the realistic outcome is never reported as worse
	// than the full worst case it is a restriction of.
	RealisticFails   bool   `json:"realistic_fails"`
	RealisticMarginV Margin `json:"realistic_margin_v"`
}

// aggressorName returns the constraint-reference name of aggressor i: the
// declared Name, or the positional default "agg<i>".
func (cs *ClusterSpec) aggressorName(i int) string {
	if n := cs.Aggressors[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("agg%d", i)
}

// hasFeasMeta reports whether the cluster declares any correlation
// metadata. Legacy clusters without it skip feasibility validation
// entirely, so pre-existing designs (of any aggressor count) keep parsing
// unchanged.
func (cs *ClusterSpec) hasFeasMeta() bool {
	if len(cs.MutexGroups) > 0 || len(cs.Implications) > 0 {
		return true
	}
	for i := range cs.Aggressors {
		if cs.Aggressors[i].Name != "" || cs.Aggressors[i].Window != nil {
			return true
		}
	}
	return false
}

// feasProblem translates the cluster's correlation metadata into a
// feas.Problem, resolving aggressor names to indices. It returns the
// effective name table alongside.
func (cs *ClusterSpec) feasProblem() (*feas.Problem, []string, error) {
	n := len(cs.Aggressors)
	names := make([]string, n)
	index := make(map[string]int, n)
	for i := range cs.Aggressors {
		names[i] = cs.aggressorName(i)
		if j, dup := index[names[i]]; dup {
			return nil, nil, fmt.Errorf("sna: cluster %s: aggressors %d and %d share the name %q",
				cs.Name, j, i, names[i])
		}
		index[names[i]] = i
	}
	resolve := func(kind, name string) (int, error) {
		i, ok := index[name]
		if !ok {
			return 0, fmt.Errorf("sna: cluster %s: %s references unknown aggressor %q", cs.Name, kind, name)
		}
		return i, nil
	}

	p := &feas.Problem{Windows: make([]feas.Window, n)}
	for i := range cs.Aggressors {
		w := cs.Aggressors[i].Window
		if w == nil {
			p.Windows[i] = feas.Unbounded()
			continue
		}
		if math.IsNaN(w.EarlyPs) || math.IsNaN(w.LatePs) || math.IsInf(w.EarlyPs, 0) || math.IsInf(w.LatePs, 0) {
			return nil, nil, fmt.Errorf("sna: cluster %s aggressor %s: window bounds must be finite", cs.Name, names[i])
		}
		if w.EarlyPs < 0 || w.EarlyPs > w.LatePs {
			return nil, nil, fmt.Errorf("sna: cluster %s aggressor %s: bad window [%g, %g] ps",
				cs.Name, names[i], w.EarlyPs, w.LatePs)
		}
		p.Windows[i] = feas.Window{Early: w.EarlyPs * 1e-12, Late: w.LatePs * 1e-12}
	}
	for _, g := range cs.MutexGroups {
		group := make([]int, 0, len(g))
		for _, name := range g {
			i, err := resolve("mutex group", name)
			if err != nil {
				return nil, nil, err
			}
			group = append(group, i)
		}
		p.Mutex = append(p.Mutex, group)
	}
	for _, imp := range cs.Implications {
		fi, err := resolve("implication", imp.If)
		if err != nil {
			return nil, nil, err
		}
		ti, err := resolve("implication", imp.Then)
		if err != nil {
			return nil, nil, err
		}
		p.Implications = append(p.Implications, feas.Implication{If: fi, Then: ti})
	}
	return p, names, nil
}

// validateFeasibility rejects correlation metadata the filter could not
// honour — unknown references, empty windows, or a self-contradictory
// constraint system — at design-validation time, so both the CLI and the
// server surface it as a typed rejection before any analysis work.
func (cs *ClusterSpec) validateFeasibility() error {
	if !cs.hasFeasMeta() {
		return nil
	}
	_, err := newFeasContext(cs)
	return err
}

// feasContext is one cluster's solved feasibility system.
type feasContext struct {
	names []string
	prob  *feas.Problem
	sol   *feas.Solution
}

// newFeasContext builds and checks the cluster's constraint system. The
// error, when non-nil, already names the cluster and the offending
// aggressors.
func newFeasContext(cs *ClusterSpec) (*feasContext, error) {
	prob, names, err := cs.feasProblem()
	if err != nil {
		return nil, err
	}
	sol, err := prob.Check()
	if err != nil {
		var inf *feas.InfeasibleError
		if errors.As(err, &inf) && !inf.Empty {
			dead := make([]string, 0, len(inf.Dead))
			for _, i := range inf.Dead {
				dead = append(dead, names[i])
			}
			return nil, fmt.Errorf("sna: cluster %s: aggressors %v can never switch under the declared constraints",
				cs.Name, dead)
		}
		return nil, fmt.Errorf("sna: cluster %s: %w", cs.Name, err)
	}
	return &feasContext{names: names, prob: prob, sol: sol}, nil
}

// nominalStarts returns each aggressor's unaligned input ramp start time —
// the times the classical evaluation uses when alignment is off.
func nominalStarts(cl *core.Cluster) []float64 {
	starts := make([]float64, len(cl.Aggressors))
	for i := range cl.Aggressors {
		starts[i] = cl.Aggressors[i].StartTime()
	}
	return starts
}

// scenarioOutcome pairs one maximal feasible scenario with its evaluation
// (possibly the shared classical one, when the scenario is the full set at
// the classical alignment).
type scenarioOutcome struct {
	set feas.Set
	ev  *core.Evaluation
}

// startsMatch reports whether two start vectors agree to femtosecond
// precision — the reuse test for the full-set scenario.
func startsMatch(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-15 {
			return false
		}
	}
	return true
}

// evalScenarios evaluates every maximal feasible scenario of the cluster.
// target/starts come from peak alignment when align is on (target is the
// classic worst-case peak instant, starts the aligned ramp starts); with
// align off, starts are the nominal ramp starts and scenarios clamp them
// into their windows. The full set evaluated at the classical starts reuses
// the classical evaluation instead of re-running the engine, so a cluster
// without constraints costs no extra solves. Engine-level scenario counts
// are recorded in the process-wide feas statistics.
func evalScenarios(ctx context.Context, cl *core.Cluster, method core.Method, models *core.Models, eopts core.EvalOptions, fctx *feasContext, target float64, starts []float64, align bool, classic *core.Evaluation) ([]scenarioOutcome, error) {
	n := len(cl.Aggressors)
	outcomes := make([]scenarioOutcome, 0, len(fctx.sol.Maximal))
	evals := 0
	for _, set := range fctx.sol.Maximal {
		idx := set.Indices()
		active := make([]bool, n)
		scStarts := make([]float64, n)
		for i := range scStarts {
			scStarts[i] = math.NaN()
		}
		if align && !math.IsNaN(target) {
			// Constrained re-alignment: each member's peak delay is known
			// from the timing runs (peak hits target when started at
			// starts[i]), so the realizable common peak target within the
			// windows follows from pure interval arithmetic. No ramp
			// starts before t = 0 (core rejects one), so an aggressor
			// without a window may start at any time from 0 on.
			subW := make([]feas.Window, len(idx))
			subD := make([]float64, len(idx))
			for k, i := range idx {
				subW[k] = fctx.prob.Windows[i]
				subW[k].Early = math.Max(subW[k].Early, 0)
				subD[k] = target - starts[i]
			}
			sub := feas.AlignWindows(subW, subD, target)
			for k, i := range idx {
				scStarts[i] = sub[k]
				active[i] = true
			}
		} else {
			for _, i := range idx {
				scStarts[i] = fctx.prob.Windows[i].Clamp(starts[i])
				active[i] = true
			}
		}
		if set.Count() == n && startsMatch(scStarts, starts) {
			outcomes = append(outcomes, scenarioOutcome{set: set, ev: classic})
			continue
		}
		ev, err := cl.EvaluateScenario(ctx, method, models, eopts, active, scStarts)
		if err != nil {
			return nil, err
		}
		evals++
		outcomes = append(outcomes, scenarioOutcome{set: set, ev: ev})
	}
	feas.Record(fctx.sol, evals)
	return outcomes, nil
}

// report folds the scenario outcomes into the FeasReport: the governing
// scenario is the one with the smallest NRC margin (ties to the earliest in
// the deterministic scenario order), and the realistic margin is floored at
// the classic one.
func (f *feasContext) report(curve *nrc.Curve, scenarios []scenarioOutcome, classicMarginV Margin, classicFails bool) *FeasReport {
	rep := &FeasReport{
		Combos:    f.sol.Total,
		Feasible:  f.sol.Feasible,
		Pruned:    f.sol.Pruned,
		Scenarios: len(scenarios),
	}
	gov := -1
	govMargin := Margin(math.Inf(1))
	for i, sc := range scenarios {
		m := Margin(curve.MarginV(sc.ev.RecvMetrics.Peak, sc.ev.RecvMetrics.Width))
		if gov < 0 || m < govMargin {
			gov, govMargin = i, m
		}
	}
	if gov < 0 {
		// No evaluable scenario (cannot happen after Check, which rejects
		// empty systems) — degrade to the classic result.
		rep.RealisticMarginV = classicMarginV
		rep.RealisticFails = classicFails
		return rep
	}
	sc := scenarios[gov]
	rep.Scenario = make([]string, 0, sc.set.Count())
	for _, i := range sc.set.Indices() {
		rep.Scenario = append(rep.Scenario, f.names[i])
	}
	rep.RealisticPeakV = sc.ev.RecvMetrics.Peak
	rep.RealisticWidthPs = sc.ev.RecvMetrics.WidthPs()
	rep.RealisticDPPeakV = sc.ev.Metrics.Peak
	// Soundness floor: a scenario is a restriction of the full worst case,
	// so the realistic margin can only be ≥ the classic one; numerical
	// drift must not report otherwise.
	rep.RealisticMarginV = govMargin
	if classicMarginV > rep.RealisticMarginV {
		rep.RealisticMarginV = classicMarginV
	}
	rep.RealisticFails = classicFails &&
		curve.Fails(sc.ev.RecvMetrics.Peak, sc.ev.RecvMetrics.Width)
	return rep
}

// emptyFeasReport is the trivial census for an aggressor-free cluster in
// feasibility mode: nothing to prune, realistic equals classic.
func emptyFeasReport(rep *NetReport) *FeasReport {
	feas.Record(&feas.Solution{}, 0)
	return &FeasReport{
		RealisticPeakV:   rep.PeakV,
		RealisticWidthPs: rep.WidthPs,
		RealisticDPPeakV: rep.DPPeakV,
		RealisticFails:   rep.Fails,
		RealisticMarginV: rep.MarginV,
	}
}

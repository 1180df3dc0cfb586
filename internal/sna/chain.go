package sna

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/core"
	"stanoise/internal/wave"
)

// PropagateChain implements the paper's stated future work — "a complete
// methodology for static noise analysis based on our macromodel": noise is
// carried through a pipeline of clusters, where the glitch measured at one
// stage's victim receiver input becomes the input glitch of the next
// stage's victim driver. Each stage is evaluated with the given method at
// its worst-case alignment, on the same corner- and nonlinear-cap-derived
// card Analyze uses.
//
// The returned metrics are the receiver-input noise after each stage. A
// chain converges (noise dies out stage over stage) when every stage's
// driver attenuates below unity noise gain; a growing sequence is the
// signature of a propagating functional failure.
//
// When Options.Feasibility is on, each stage carries its *realistic* noise
// forward instead of the classical worst case: the stage's correlation
// constraints are solved, every maximal feasible scenario is evaluated at
// its constrained alignment, and the governing scenario (largest receiver
// peak — there is no NRC in a chain hand-off) feeds the next stage.
// Alignment stops at peak alignment in this mode, mirroring Analyze.
func (a *Analyzer) PropagateChain(ctx context.Context, specs []ClusterSpec) ([]wave.NoiseMetrics, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sna: empty chain")
	}
	var out []wave.NoiseMetrics
	carry := 0.0  // glitch height into the next stage (V)
	carryW := 0.0 // glitch width into the next stage (s)
	for i, cs := range specs {
		if i > 0 {
			// Feed the previous stage's receiver noise forward.
			cs.Victim.GlitchHeightV = carry
			cs.Victim.GlitchWidthPs = carryW * 1e12
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cl, err := a.buildCluster(cs)
		if err != nil {
			return nil, fmt.Errorf("sna: chain stage %d: %w", i, err)
		}
		method := a.opts.Method
		models, err := cl.BuildModels(ctx, a.modelOptions())
		if err != nil {
			return nil, fmt.Errorf("sna: chain stage %d models: %w", i, err)
		}
		eopts := core.EvalOptions{Dt: a.opts.Dt}
		feasible := a.opts.Feasibility && len(cl.Aggressors) > 0
		var fctx *feasContext
		if feasible {
			if fctx, err = newFeasContext(&cs); err != nil {
				return nil, fmt.Errorf("sna: chain stage %d: %w", i, err)
			}
		}
		target, starts := 0.0, []float64(nil)
		if a.opts.Align && len(cl.Aggressors) > 0 {
			if feasible {
				target, starts, err = cl.AlignPeaks(ctx, models, eopts)
			} else {
				err = cl.AlignWorstCase(ctx, models, eopts)
			}
			if err != nil {
				return nil, fmt.Errorf("sna: chain stage %d alignment: %w", i, err)
			}
		}
		if feasible && starts == nil {
			target = math.NaN()
			starts = nominalStarts(cl)
		}
		ev, err := cl.Evaluate(ctx, method, models, eopts)
		if err != nil {
			return nil, fmt.Errorf("sna: chain stage %d evaluation: %w", i, err)
		}
		m := ev.RecvMetrics
		if feasible {
			scenarios, err := evalScenarios(ctx, cl, method, models, eopts, fctx, target, starts, a.opts.Align, ev)
			if err != nil {
				return nil, fmt.Errorf("sna: chain stage %d scenarios: %w", i, err)
			}
			// The governing hand-off is the feasible scenario with the
			// largest receiver peak; it can only be ≤ the classical carry.
			gov := -1
			for j, sc := range scenarios {
				if gov < 0 || sc.ev.RecvMetrics.Peak > scenarios[gov].ev.RecvMetrics.Peak {
					gov = j
				}
			}
			if gov >= 0 {
				m = scenarios[gov].ev.RecvMetrics
			}
		}
		out = append(out, m)
		carry = m.Peak
		// Carry the base width of an equivalent triangle (2·area/peak) so
		// both amplitude and energy survive the hand-off.
		if m.Peak > 0 {
			carryW = 2 * m.Area / m.Peak
		} else {
			carryW = 0
		}
	}
	return out, nil
}

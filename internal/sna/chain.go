package sna

import (
	"context"
	"fmt"

	"stanoise/internal/wave"
)

// PropagateChain implements the paper's stated future work — "a complete
// methodology for static noise analysis based on our macromodel": noise is
// carried through a pipeline of clusters, where the glitch measured at one
// stage's victim receiver input becomes the input glitch of the next
// stage's victim driver. Each stage runs the per-cluster pipeline of
// Analyze (build, models, alignment, evaluation and, under
// Options.Feasibility, the scenarios) on the same analysis card, and
// borrows its compiled benches from the analyzer's pool, as Analyze does.
//
// The returned metrics are the receiver-input noise after each stage. A
// chain converges (noise dies out stage over stage) when every stage's
// driver attenuates below unity noise gain; a growing sequence is the
// signature of a propagating functional failure.
//
// When Options.Feasibility is on, each stage carries its *realistic* noise
// forward instead of the classical worst case: the governing scenario
// (largest receiver peak — there is no NRC in a chain hand-off) feeds the
// next stage. Alignment stops at peak alignment in this mode, mirroring
// Analyze.
//
// A failing stage returns its *ClusterError wrapped with the stage index.
func (a *Analyzer) PropagateChain(ctx context.Context, specs []ClusterSpec) ([]wave.NoiseMetrics, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sna: empty chain")
	}
	if a.optsErr != nil {
		return nil, a.optsErr
	}
	out := make([]wave.NoiseMetrics, 0, len(specs))
	for i, cs := range specs {
		if i > 0 {
			// Feed the previous stage's receiver noise forward: its peak,
			// and the base width of an equivalent triangle (2·area/peak) so
			// both amplitude and energy survive the hand-off.
			prev := out[i-1]
			cs.Victim.GlitchHeightV = prev.Peak
			cs.Victim.GlitchWidthPs = 0
			if prev.Peak > 0 {
				cs.Victim.GlitchWidthPs = 2 * prev.Area / prev.Peak * 1e12
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, cerr := a.runCluster(ctx, cs)
		if cerr != nil {
			return nil, fmt.Errorf("sna: chain stage %d: %w", i, cerr)
		}
		out = append(out, r.handoff())
	}
	return out, nil
}

// handoff is the noise a chain stage carries forward: the classic receiver
// metrics, or, when the feasibility filter ran, the feasible scenario's
// with the largest receiver peak (ties to the earliest scenario), which can
// only be ≤ the classic one.
func (r *clusterRun) handoff() wave.NoiseMetrics {
	m := r.ev.RecvMetrics
	for i, sc := range r.scenarios {
		if i == 0 || sc.ev.RecvMetrics.Peak > m.Peak {
			m = sc.ev.RecvMetrics
		}
	}
	return m
}

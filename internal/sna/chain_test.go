package sna

import (
	"context"
	"errors"
	"strings"
	"testing"

	"stanoise/internal/core"
)

// chainDesign is the design the chain tests analyse under; PropagateChain
// takes its stages as an argument, so the design's own cluster only
// placates Validate.
func chainDesign() *Design {
	return &Design{
		Name: "chain", Tech: "cmos130", Layer: "M4", Segments: 8,
		Clusters: []ClusterSpec{{Name: "seed"}},
	}
}

// chainStage is one stage of a quiet, weakly coupled chain: every stage
// shares one victim and one aggressor configuration.
func chainStage(name string, glitchV float64) ClusterSpec {
	return ClusterSpec{
		Name: name,
		Victim: VictimSpec{
			Cell: "NAND2", Drive: 2, NoisyPin: "B",
			GlitchHeightV: glitchV, GlitchWidthPs: 300,
			LengthUm: 200,
		},
		Aggressors: []AggressorSpec{
			{Cell: "INV", Drive: 1, FromState: map[string]bool{"A": false},
				SwitchPin: "A", LengthUm: 200, SpacingFactor: 2},
		},
	}
}

// A chain of quiet, weakly coupled stages must attenuate noise stage over
// stage (the common, healthy case), while the per-stage metrics remain
// physical.
func TestPropagateChainAttenuates(t *testing.T) {
	an := NewAnalyzer(chainDesign(), fastOpts(core.Macromodel))
	chain := []ClusterSpec{chainStage("s1", 0.55), chainStage("s2", 0), chainStage("s3", 0)}
	metrics, err := an.PropagateChain(context.Background(), chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 3 {
		t.Fatalf("stages = %d", len(metrics))
	}
	for i, m := range metrics {
		if m.Peak < 0 || m.Peak > 1.3 {
			t.Errorf("stage %d peak %v implausible", i, m.Peak)
		}
	}
	// Strong drivers on short, well-spaced wires: the carried noise must
	// shrink from stage 2 to stage 3 (attenuating regime).
	if metrics[2].Peak >= metrics[1].Peak {
		t.Errorf("chain did not attenuate: %.3f -> %.3f", metrics[1].Peak, metrics[2].Peak)
	}
}

// TestPropagateChainSharesRigPool holds a chain to the compiled-bench
// reuse of a serial Analyze: the chain runs on one pool from the
// analyzer's set, so stages sharing a victim configuration share its
// driver-alone bench instead of compiling one each.
func TestPropagateChainSharesRigPool(t *testing.T) {
	an := NewAnalyzer(chainDesign(), fastOpts(core.Macromodel))
	chain := []ClusterSpec{chainStage("s1", 0.55), chainStage("s2", 0), chainStage("s3", 0)}
	if _, err := an.PropagateChain(context.Background(), chain); err != nil {
		t.Fatal(err)
	}
	hits, misses := an.RigPoolStats()
	t.Logf("rig pool hits/misses = %d/%d", hits, misses)
	if misses == 0 || hits == 0 {
		t.Errorf("rig pool hits/misses = %d/%d over a 3-stage chain with one victim configuration, want both > 0", hits, misses)
	}
}

// TestPropagateChainStageErrorIsTyped holds a chain's failures to the
// error type of Analyze: a stage that cannot be built surfaces as a
// *ClusterError naming the build stage and that stage's cluster, wrapped
// with the stage index.
func TestPropagateChainStageErrorIsTyped(t *testing.T) {
	d := sampleDesign()
	chain := append([]ClusterSpec(nil), d.Clusters...)
	chain[1].Victim.Cell = "XOR9"
	_, err := NewAnalyzer(d, fastOpts(core.Macromodel)).PropagateChain(context.Background(), chain)
	var cerr *ClusterError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want a *ClusterError", err)
	}
	if cerr.Stage != StageBuild || cerr.Cluster != chain[1].Name {
		t.Errorf("ClusterError stage %q cluster %q, want %q %q", cerr.Stage, cerr.Cluster, StageBuild, chain[1].Name)
	}
	if !strings.HasPrefix(err.Error(), "sna: chain stage 1: ") {
		t.Errorf("err = %q, want the stage index prefix", err)
	}
}

func TestPropagateChainEmpty(t *testing.T) {
	d := sampleDesign()
	an := NewAnalyzer(d, fastOpts(core.Macromodel))
	if _, err := an.PropagateChain(context.Background(), nil); err == nil {
		t.Error("empty chain accepted")
	}
}

package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/sna"
)

// A peak-only run resumed from another run's trace is a fresh run bit for
// bit (DESIGN.md §29). On every cluster of the reference design, for
// seeded pairs of offset vectors — one aggressor moved, every aggressor
// moved, zero and negative shifts among them, and the vector against
// itself — with the victim's Miller capacitor off and on, and for
// AlignPeaks' all-linear timing runs, the second run resumed from the
// first one's trace reads the fresh run's peak and peak time by
// Float64bits, records the same trace rows, and takes no more steps.
func TestResumedRunsMatchFreshRuns(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(32, 29))
	d := sna.GenerateDesign("reference", 48)
	cache := charlib.NewCache()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var pairs, resumedPairs int
	var freshSteps, resumedSteps int64
	for _, cs := range d.Clusters {
		cl, err := d.BuildCluster(cs)
		if err != nil {
			t.Fatal(err)
		}
		models, err := cl.BuildModels(ctx, core.ModelOptions{SkipProp: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		nAgg := len(cl.Aggressors)
		if nAgg == 0 {
			continue
		}
		base := make([]float64, nAgg)
		for i := range cl.Aggressors {
			base[i] = cl.Aggressors[i].Offset
		}
		eo := core.EngineOptions{Dt: 2e-12, TStop: cl.EventHorizon()}
		quiet := cl.QuietVictimLevel()
		// shifted returns base moved by a whole number of 20 ps steps in
		// [−80, 80] ps on the aggressors move selects, each ramp kept at
		// t ≥ 0.
		shifted := func(move func(i int) bool) []float64 {
			off := slices.Clone(base)
			for i := range off {
				if move(i) {
					off[i] += float64(rng.IntN(9)-4) * 20e-12
					if cl.Aggressors[i].StartTime()-base[i]+off[i] < 0 {
						off[i] = base[i]
					}
				}
			}
			return off
		}
		sources := func(off []float64, build func() []core.PortSource) []core.PortSource {
			for i := range cl.Aggressors {
				cl.Aggressors[i].Offset = off[i]
			}
			defer func() {
				for i := range cl.Aggressors {
					cl.Aggressors[i].Offset = base[i]
				}
			}()
			return build()
		}
		one := rng.IntN(nAgg)
		moves := []struct {
			name string
			a, b []float64
		}{
			{"one moved", shifted(func(i int) bool { return i == one }), nil},
			{"all moved", shifted(func(int) bool { return true }), shifted(func(int) bool { return true })},
			{"itself", base, base},
		}
		moves[0].b = shifted(func(i int) bool { return i == one })
		check := func(name string, a, b []core.PortSource) {
			t.Helper()
			fresh, resumed, err := core.RunResumed(models, a, b, eo, quiet)
			if err != nil {
				t.Fatalf("%s: %s: %v", cs.Name, name, err)
			}
			pairs++
			freshSteps += fresh.Steps
			resumedSteps += resumed.Steps
			if resumed.Steps < fresh.Steps {
				resumedPairs++
			}
			if !bits(resumed.Peak, fresh.Peak) || !bits(resumed.TPeak, fresh.TPeak) {
				t.Errorf("%s: %s: resumed run peaks %v V at %v s, fresh run %v V at %v s",
					cs.Name, name, resumed.Peak, resumed.TPeak, fresh.Peak, fresh.TPeak)
			}
			if !slices.EqualFunc(resumed.Rows, fresh.Rows, bits) {
				t.Errorf("%s: %s: resumed run recorded %d trace values, fresh run %d, and they differ",
					cs.Name, name, len(resumed.Rows), len(fresh.Rows))
			}
			if resumed.Steps > fresh.Steps {
				t.Errorf("%s: %s: resumed run took %d steps, fresh run %d", cs.Name, name, resumed.Steps, fresh.Steps)
			}
		}
		for _, mv := range moves {
			for _, miller := range []bool{false, true} {
				probe := func() []core.PortSource { return core.ProbeSources(cl, models, miller) }
				check(fmt.Sprintf("%s, miller %v", mv.name, miller), sources(mv.a, probe), sources(mv.b, probe))
			}
		}
		// A timing run against the same aggressor's run at another offset.
		timing := func() []core.PortSource { return core.TimingSources(cl, models, one) }
		check("timing", sources(moves[0].a, timing), sources(moves[0].b, timing))
	}
	t.Logf("%d pairs, %d resumed past step 1: %d steps resumed against %d fresh", pairs, resumedPairs, resumedSteps, freshSteps)
	if resumedPairs < pairs/2 {
		t.Errorf("only %d of %d pairs resumed past step 1", resumedPairs, pairs)
	}
}

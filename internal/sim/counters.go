package sim

import "sync"

// Counters counts solver work: the one counter type behind Session.Stats,
// the process-wide totals (Snapshot), the per-corner work a
// characterisation cache charges (charlib.CornerStats), the /statsz sim
// blocks and libchar -stats-out. They exist so higher layers can *prove*
// characterisation reuse: a warm persistent-store run must perform zero DC
// sweeps and zero transient characterisation runs, and the cheapest
// airtight way to assert that is to count every solve the engine actually
// starts.
//
// A Session is the only place that counts transistor-level work; each of
// its public Run* calls folds its delta into the process totals once
// (Record), including failed and cancelled runs. The JSON tags are the
// wire names of every counter block.
type Counters struct {
	// DC counts DC solves started: RunDC and the operating point every
	// transient solves first, so a single transient advances both DC and
	// Transient by one.
	DC int64 `json:"dc"`
	// Transient counts transient runs started.
	Transient int64 `json:"transient"`
	// NewtonIters counts Newton iterations across all solves (including
	// gmin stepping) — the work metric warm-start continuation reduces.
	NewtonIters int64 `json:"newton_iters"`
	// WarmStarts counts DC solves seeded from the previous converged
	// solution (Session.Seed); WarmFallbacks counts the subset whose
	// seed failed to converge and was re-solved from the cold guess.
	WarmStarts    int64 `json:"warm_starts"`
	WarmFallbacks int64 `json:"warm_fallbacks"`
	// LinearFastPathRuns counts transient runs that took the linear fast
	// path: the system matrix factored once per run, every timestep a
	// forward/back-substitution, zero Newton iterations. Paired with
	// NewtonIters it proves a pure-RC run never entered the Newton loop.
	LinearFastPathRuns int64 `json:"linear_fast_path_runs"`
	// LowRankRuns counts transient runs of nonlinear programs that took
	// the factored step loop (DESIGN.md §17): the step matrix factored once
	// per run and each Newton iteration a substitution plus a rank-r
	// correction on the device rows. LowRankFallbacks counts the steps of
	// such runs whose correction failed (a singular K or no convergence)
	// and were re-solved on the dense Newton.
	LowRankRuns      int64 `json:"low_rank_runs"`
	LowRankFallbacks int64 `json:"low_rank_fallbacks"`
	// TransientSteps counts accepted transient timesteps — the denominator
	// for per-step work metrics such as the predictor's Newton-iteration
	// reduction.
	TransientSteps int64 `json:"transient_steps"`
	// PredictorSeeds counts accepted timesteps whose Newton solve was
	// seeded by the polynomial predictor (Session.Seed);
	// PredictorFallbacks counts the seeded solves re-solved from the
	// previous converged point.
	PredictorSeeds     int64 `json:"predictor_seeds"`
	PredictorFallbacks int64 `json:"predictor_fallbacks"`
	// NLStampEvals counts nonlinear-capacitor stamp evaluations (one per
	// voltage-dependent gate cap per transient Newton assembly). Strictly
	// positive iff the state-dependent charge model actually ran.
	NLStampEvals int64 `json:"nl_stamp_evals"`
	// EngineRuns counts reduced-order noise-engine runs (core.RunEngine) —
	// evaluation work, not transistor-level characterisation, so it is
	// excluded from Total(). The feasibility filter's strictly-fewer-solves
	// guarantee is asserted on this counter.
	EngineRuns int64 `json:"engine_runs"`
	// EngineSteps counts the timesteps those engine runs took: a run the
	// alignment search stops once its peak is decided (DESIGN.md §26)
	// counts the steps it ran, not the steps to its stop time, and a probe
	// that resumes from the best run's state (§29) counts only the steps
	// after its resume point. Like EngineRuns it is evaluation work,
	// excluded from Total().
	EngineSteps int64 `json:"engine_steps"`
}

// Add returns the per-counter sum c + d.
func (c Counters) Add(d Counters) Counters {
	return Counters{
		DC:                 c.DC + d.DC,
		Transient:          c.Transient + d.Transient,
		NewtonIters:        c.NewtonIters + d.NewtonIters,
		WarmStarts:         c.WarmStarts + d.WarmStarts,
		WarmFallbacks:      c.WarmFallbacks + d.WarmFallbacks,
		LinearFastPathRuns: c.LinearFastPathRuns + d.LinearFastPathRuns,
		LowRankRuns:        c.LowRankRuns + d.LowRankRuns,
		LowRankFallbacks:   c.LowRankFallbacks + d.LowRankFallbacks,
		TransientSteps:     c.TransientSteps + d.TransientSteps,
		PredictorSeeds:     c.PredictorSeeds + d.PredictorSeeds,
		PredictorFallbacks: c.PredictorFallbacks + d.PredictorFallbacks,
		NLStampEvals:       c.NLStampEvals + d.NLStampEvals,
		EngineRuns:         c.EngineRuns + d.EngineRuns,
		EngineSteps:        c.EngineSteps + d.EngineSteps,
	}
}

// Sub returns the per-counter difference c − prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		DC:                 c.DC - prev.DC,
		Transient:          c.Transient - prev.Transient,
		NewtonIters:        c.NewtonIters - prev.NewtonIters,
		WarmStarts:         c.WarmStarts - prev.WarmStarts,
		WarmFallbacks:      c.WarmFallbacks - prev.WarmFallbacks,
		LinearFastPathRuns: c.LinearFastPathRuns - prev.LinearFastPathRuns,
		LowRankRuns:        c.LowRankRuns - prev.LowRankRuns,
		LowRankFallbacks:   c.LowRankFallbacks - prev.LowRankFallbacks,
		TransientSteps:     c.TransientSteps - prev.TransientSteps,
		PredictorSeeds:     c.PredictorSeeds - prev.PredictorSeeds,
		PredictorFallbacks: c.PredictorFallbacks - prev.PredictorFallbacks,
		NLStampEvals:       c.NLStampEvals - prev.NLStampEvals,
		EngineRuns:         c.EngineRuns - prev.EngineRuns,
		EngineSteps:        c.EngineSteps - prev.EngineSteps,
	}
}

// Total is the number of transistor-level engine invocations (DC plus
// transient solves — not Newton iterations, and not reduced-order
// EngineRuns) in the snapshot. The warm-run zero-solve proofs depend on
// exactly this definition.
func (c Counters) Total() int64 { return c.DC + c.Transient }

// The process-wide totals since start.
var (
	countersMu sync.Mutex
	totals     Counters
)

// Record adds a work delta to the process-wide totals. Sessions call it
// once per Run*; core.RunEngine records its EngineRuns and EngineSteps
// through it, once per run.
func Record(d Counters) {
	countersMu.Lock()
	totals = totals.Add(d)
	countersMu.Unlock()
}

// Snapshot returns the cumulative process-wide counters. Subtract two
// snapshots (see Sub) to measure the work attributable to a region of
// code.
func Snapshot() Counters {
	countersMu.Lock()
	defer countersMu.Unlock()
	return totals
}

package sim

import "flag"

// Policy is the solver policy of a characterisation sweep: the opt-in
// Newton seeding modes every characterised artefact is built under. It is
// the one definition of those modes — the analysis options, the
// characterisation options, the server's request knobs and the CLIs' flags
// all carry this value — and Fingerprint is the one key it contributes to
// the characterisation cache and the persistent store.
//
// WarmStart is the Newton continuation mode (Session.WarmStart): each DC
// solve — including the operating point at the start of every transient —
// is seeded from the previous sweep point's converged solution, which cuts
// total Newton iterations substantially on fine grids. Predictor seeds each
// transient timestep's Newton solve with a polynomial extrapolation over the
// previous converged steps (Session.Predictor), cutting per-step iterations
// on the glitch transients that dominate propagation and NRC
// characterisation; DC-only sweeps (load curves) are unaffected by it.
//
// Both modes are off by default. Each per-solve result differs from the cold
// flow only at solver tolerance and a failed seed falls back to the cold
// start, but an NRC bisection branch flipping near its threshold can move a
// curve height — and so a reported margin — by up to the bisection
// tolerance. Policy artefacts are therefore cached and persisted under
// distinct keys and never mix with cold ones; sweep order is deterministic,
// so they are still reproducible run to run.
type Policy struct {
	// WarmStart enables the Newton continuation mode.
	WarmStart bool
	// Predictor enables the polynomial transient predictor.
	Predictor bool
}

// Fingerprint returns the policy's cache/store key suffix: "" for the cold
// policy, so every cold key is the legacy one, then ",warm", ",pred" or
// ",warm,pred".
func (p Policy) Fingerprint() string {
	fp := ""
	if p.WarmStart {
		fp += ",warm"
	}
	if p.Predictor {
		fp += ",pred"
	}
	return fp
}

// DC returns the part of the policy a DC-only sweep depends on: warm start
// alone. Load curves key (and characterise) under this view, so a
// predictor run shares them with the same run without the predictor.
func (p Policy) DC() Policy { return Policy{WarmStart: p.WarmStart} }

// RegisterFlags defines the -warm-start and -predictor command-line flags
// on fs, bound to p.
func (p *Policy) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&p.WarmStart, "warm-start", p.WarmStart,
		"seed characterisation Newton solves from the previous sweep point (sim.Policy; distinct cache/store keys)")
	fs.BoolVar(&p.Predictor, "predictor", p.Predictor,
		"seed each characterisation transient timestep from a polynomial extrapolation (sim.Policy; distinct cache/store keys)")
}

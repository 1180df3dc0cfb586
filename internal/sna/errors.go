package sna

import (
	"encoding/json"
	"fmt"
)

// Stage identifies the pipeline stage of cluster analysis in which an error
// occurred. The stages mirror StageTiming: build, models, feas, align, eval,
// nrc.
type Stage string

// The analysis pipeline stages, in execution order. StageFeas only appears
// when the feasibility filter is enabled (Options.Feasibility).
const (
	StageBuild  Stage = "build"  // cluster construction: geometry, parasitics, cells, and the step rule (core.Cluster.CheckStep)
	StageModels Stage = "models" // pre-characterisation (load curve, Thevenin, MOR)
	StageFeas   Stage = "feas"   // feasibility filter: constraint solve + scenario evaluations
	StageAlign  Stage = "align"  // worst-case aggressor alignment search
	StageEval   Stage = "eval"   // transient evaluation of the chosen method
	StageNRC    Stage = "nrc"    // receiver NRC characterisation or cache lookup
)

// ClusterError is the typed per-cluster analysis failure: which cluster
// failed, in which pipeline stage, and the underlying cause. It supports
// errors.Is/errors.As through Unwrap, so callers can both extract the
// failing cluster from an Analyze/Stream error and still test the root
// cause (e.g. errors.Is(err, context.Canceled)).
type ClusterError struct {
	Cluster string // cluster (victim net) name from the design
	Stage   Stage  // pipeline stage that failed
	Err     error  // underlying cause
}

// Error implements error.
func (e *ClusterError) Error() string {
	return fmt.Sprintf("sna: cluster %s: %s: %v", e.Cluster, e.Stage, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ClusterError) Unwrap() error { return e.Err }

// MarshalJSON renders the error in the stable machine-readable form used by
// snacheck -json: {"cluster": ..., "stage": ..., "error": ...}.
func (e *ClusterError) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cluster string `json:"cluster"`
		Stage   Stage  `json:"stage"`
		Error   string `json:"error"`
	}{e.Cluster, e.Stage, e.Err.Error()})
}

// ErrorPolicy selects how Analyze and Stream treat failing clusters.
type ErrorPolicy int

const (
	// FailFast (the default) stops dispatching new clusters at the first
	// failure; Analyze returns the error of the earliest failing cluster in
	// design order, mirroring what a serial run would report.
	FailFast ErrorPolicy = iota
	// ContinueOnError analyses every cluster regardless of failures.
	// Analyze returns the reports of all successful clusters together with
	// every *ClusterError combined via errors.Join; Stream yields each
	// failure, in completion order, as it happens.
	ContinueOnError
)

// String returns the stable policy name accepted by ParseErrorPolicy
// ("fail-fast" or "continue").
func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case ContinueOnError:
		return "continue"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseErrorPolicy converts the CLI spellings ("fail-fast", "continue")
// into an ErrorPolicy.
func ParseErrorPolicy(s string) (ErrorPolicy, error) {
	switch s {
	case "fail-fast", "failfast":
		return FailFast, nil
	case "continue", "collect":
		return ContinueOnError, nil
	}
	return 0, fmt.Errorf("unknown error policy %q (want fail-fast or continue)", s)
}

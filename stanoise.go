package stanoise

import (
	"io"

	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/nrc"
	"stanoise/internal/serve"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// This file is the curated public surface of the repository: a facade over
// the internal analysis engine. Everything a caller needs to describe a
// design, run (or stream) a static noise analysis, tune model quality and
// interpret results is re-exported here, so programs never import
// stanoise/internal/... directly. The fine-grained cluster API reached
// through Design.BuildCluster — BuildModels, AlignWorstCase, Evaluate —
// stays usable through these aliases without naming internal packages.

// Design description and construction.
type (
	// Design is the top-level JSON design description: a set of noise
	// clusters extracted from a routed design, with common technology and
	// layer.
	Design = sna.Design
	// ClusterSpec describes one victim net and its coupled aggressors.
	ClusterSpec = sna.ClusterSpec
	// VictimSpec is the victim net of a cluster.
	VictimSpec = sna.VictimSpec
	// AggressorSpec is one coupled aggressor of a cluster.
	AggressorSpec = sna.AggressorSpec
	// WindowSpec bounds when an aggressor's input transition may start
	// (picoseconds), for the feasibility filter (Options.Feasibility).
	WindowSpec = sna.WindowSpec
	// ImplicationSpec is a logic implication between named aggressors:
	// whenever If switches in a scenario, Then switches too.
	ImplicationSpec = sna.ImplicationSpec
	// Cluster is the evaluable form of a ClusterSpec (see
	// Design.BuildCluster): the victim driver, aggressors, coupled
	// interconnect and receivers of one noise cluster.
	Cluster = core.Cluster
)

// Analysis entry points and results.
type (
	// Analyzer runs static noise analysis over a design; see NewAnalyzer.
	// Analyze(ctx) returns reports in design order; Stream(ctx) yields
	// them in completion order.
	Analyzer = sna.Analyzer
	// Options configures an analysis run: victim model, worker count,
	// error policy, characterisation cache/store wiring, model-quality
	// grids, and the characterisation solver Policy.
	Options = sna.Options
	// NetReport is the per-victim outcome of an analysis; its JSON form is
	// the stable schema emitted by snacheck -json.
	NetReport = sna.NetReport
	// Summary aggregates reports (see Summarize).
	Summary = sna.Summary
	// StageTiming breaks one cluster's analysis into pipeline stages.
	StageTiming = sna.StageTiming
	// FeasReport is the per-cluster outcome of the feasibility filter
	// (NetReport.Feasibility): the pruned-combination census and the
	// bounded-realistic noise result next to the classic worst case.
	FeasReport = sna.FeasReport
)

// Typed errors and policies.
type (
	// ClusterError is the typed per-cluster failure: cluster name, pipeline
	// stage and cause. Extract it from any analysis error with errors.As.
	ClusterError = sna.ClusterError
	// Stage identifies the failing pipeline stage inside a ClusterError.
	Stage = sna.Stage
	// ErrorPolicy selects fail-fast or continue-and-collect error handling.
	ErrorPolicy = sna.ErrorPolicy
)

// Pipeline stages, in execution order.
const (
	StageBuild  = sna.StageBuild
	StageModels = sna.StageModels
	StageFeas   = sna.StageFeas
	StageAlign  = sna.StageAlign
	StageEval   = sna.StageEval
	StageNRC    = sna.StageNRC
)

// Error policies.
const (
	// FailFast stops at the first failing cluster (the default).
	FailFast = sna.FailFast
	// ContinueOnError analyses every cluster and collects all failures
	// via errors.Join.
	ContinueOnError = sna.ContinueOnError
)

// Victim-driver models.
type (
	// Method selects how the total noise on a cluster is computed.
	Method = core.Method
	// Evaluation is the outcome of evaluating one cluster with one method:
	// waveforms and glitch metrics at the driving point and receiver.
	Evaluation = core.Evaluation
	// EvalOptions tunes cluster evaluation.
	EvalOptions = core.EvalOptions
	// Models holds a cluster's pre-characterised artefacts (see
	// Cluster.BuildModels).
	Models = core.Models
	// ModelOptions tunes model construction.
	ModelOptions = core.ModelOptions
)

const (
	// Golden is the full transistor-level simulation (ELDO stand-in).
	Golden = core.Golden
	// Superposition is the traditional linear flow.
	Superposition = core.Superposition
	// Zolotov is the iterative pulsed-Thevenin victim model of ref [4].
	Zolotov = core.Zolotov
	// Macromodel is the paper's non-linear VCCS approach (the default).
	Macromodel = core.Macromodel
)

// Characterisation quality knobs and artefacts.
type (
	// Cache memoizes characterisation artefacts across clusters, workers
	// and analyzers; see NewCache and Options.Cache.
	Cache = charlib.Cache
	// CacheStats reports cache effectiveness counters.
	CacheStats = charlib.CacheStats
	// Store is the persistent, versioned, content-addressed on-disk tier
	// of the characterisation cache; see OpenStore, Options.CacheDir and
	// Cache.SetStore. Stores are safe to share between concurrent
	// processes and portable across machines via Export/Import.
	Store = charstore.Store
	// PersistentStore is the interface a Cache's disk tier satisfies
	// (implemented by *Store); see Options.Store.
	PersistentStore = charlib.PersistentStore
	// LeaseStore is the cross-process extension of PersistentStore
	// (implemented by *Store): a disk tier that also provides build
	// leases, so N processes sharing one store directory single-flight
	// each characterisation between them.
	LeaseStore = charlib.LeaseStore
	// LeaseStats counts a Store's cross-process build-lease activity.
	LeaseStats = charstore.LeaseStats
	// Policy is the characterisation solver policy: the opt-in warm-start
	// and predictor Newton seeding modes, documented on its type. Options
	// and every characterisation option struct embed it; Options.Policy is
	// the only source of an analysis's policy and overwrites the policies
	// of Options.LoadCurve, Options.Prop and Options.NRC.
	Policy = sim.Policy
	// LoadCurveOptions tunes VCCS load-curve characterisation.
	LoadCurveOptions = charlib.LoadCurveOptions
	// PropOptions tunes propagation-table characterisation.
	PropOptions = charlib.PropOptions
	// NRCOptions tunes Noise Rejection Curve characterisation.
	NRCOptions = nrc.Options
	// NRCCurve is a characterised Noise Rejection Curve: the dynamic noise
	// margin a receiver pin is judged against.
	NRCCurve = nrc.Curve
)

// Operating corners and Monte Carlo variation.
type (
	// Corner describes one operating corner — supply and temperature plus
	// per-device threshold and mobility variation. The zero value is the
	// nominal corner: analyses and characterisations run at it are
	// byte-identical to corner-less ones. Set Options.Corner to analyse a
	// design at a corner; resolve named standard corners with CornerByName.
	Corner = tech.Corner
	// CornerSampleSpec tunes the Monte Carlo corner sampler (see
	// SampleCorners); the zero value uses the default local-variation
	// sigmas around the nominal corner.
	CornerSampleSpec = tech.SampleSpec
)

// CornerByName resolves a standard corner name (tt, ff, ss, fs, sf); the
// empty string and "tt" both mean nominal.
func CornerByName(name string) (Corner, error) { return tech.CornerByName(name) }

// StandardCorners returns the five standard process corners in
// conventional order: tt, ff, ss, fs, sf.
func StandardCorners() []Corner { return tech.StandardCorners() }

// ParseCorners resolves a comma-separated list of standard corner names
// ("tt,ss,ff"); duplicates are rejected.
func ParseCorners(list string) ([]Corner, error) { return tech.ParseCorners(list) }

// SampleCorners draws n Monte Carlo corners around spec.Base with the
// given seed; the same seed always yields the same corners, so sampled
// characterisation artefacts are reproducible and cacheable.
func SampleCorners(n int, seed int64, spec CornerSampleSpec) []Corner {
	return tech.SampleCorners(n, seed, spec)
}

// Fleet-scale analysis: shared compiled-bench pools, the fleet-wide
// concurrency gate, and the HTTP analysis server.
type (
	// Gate bounds concurrent cluster evaluations across analyzers; share
	// one (see NewGate) between all analyzers of a multi-tenant process
	// via Options.Gate.
	Gate = sna.Gate
	// PoolSet is a shared, thread-safe set of compiled-bench pools (see
	// NewPoolSet and Options.RigPools): benches compiled for one analysis
	// are reused by every later one whose cluster topologies match, and
	// PoolSet.Invalidate is the explicit drop point after a library or
	// tech-card change.
	PoolSet = sna.PoolSet
	// RigPoolLimits bounds a compiled-bench pool by entry count and
	// estimated resident bytes; see Options.RigPoolLimits.
	RigPoolLimits = core.RigPoolLimits
	// Server is the stanoise analysis HTTP server (what the snaserve
	// command hosts): POST designs in the snacheck JSON schema, stream
	// per-net verdicts back in completion order. See NewServer.
	Server = serve.Server
	// ServerConfig configures a Server: shared analysis machinery plus
	// admission-control budgets (in-flight requests, cluster counts,
	// deadlines, body size).
	ServerConfig = serve.Config
	// ServerStats is the server's /statsz document: admission, cache,
	// engine, rig-pool and lease counters.
	ServerStats = serve.Stats
	// RequestError is the typed rejection of a server request before
	// analysis: an HTTP status plus a stable machine-readable code.
	RequestError = serve.RequestError
)

// NewGate returns a Gate admitting at most n concurrent cluster
// evaluations, or nil (no limit) when n <= 0.
func NewGate(n int) Gate { return sna.NewGate(n) }

// NewPoolSet returns an empty compiled-bench pool set whose pools are
// bounded by limits (the zero value selects the defaults).
func NewPoolSet(limits RigPoolLimits) *PoolSet { return sna.NewPoolSet(limits) }

// NewServer builds an analysis server from the configuration; mount it on
// any http.Server (it implements http.Handler). A cache directory that
// cannot be opened degrades to memory-only caching, reported by
// Server.StoreError.
func NewServer(cfg ServerConfig) *Server { return serve.NewServer(cfg) }

// Waveforms and glitch metrics (the payload of an Evaluation).
type (
	// Waveform is a sampled voltage waveform.
	Waveform = wave.Waveform
	// NoiseMetrics are the glitch metrics (peak, area, width) of a noise
	// waveform relative to its quiet level.
	NoiseMetrics = wave.NoiseMetrics
)

// MeasureNoise extracts glitch metrics from a waveform around a quiet
// level.
func MeasureNoise(w *Waveform, quiet float64) NoiseMetrics { return wave.MeasureNoise(w, quiet) }

// PeakError returns the relative error of got versus want in percent.
func PeakError(got, want float64) float64 { return wave.PeakError(got, want) }

// NewAnalyzer builds an analyzer for a validated design.
func NewAnalyzer(d *Design, opts Options) *Analyzer { return sna.NewAnalyzer(d, opts) }

// NewCache returns an empty characterisation cache ready for concurrent
// use, for sharing across analyzers via Options.Cache.
func NewCache() *Cache { return charlib.NewCache() }

// OpenStore opens (creating if needed) a persistent characterisation store
// rooted at dir. Attach it to a cache with Cache.SetStore or Options.Store,
// or let Options.CacheDir do both. A corrupted index is rebuilt from the
// entry files; OpenStore fails only when the directory itself is unusable.
func OpenStore(dir string) (*Store, error) { return charstore.Open(dir) }

// ParseDesign reads a Design from JSON.
func ParseDesign(r io.Reader) (*Design, error) { return sna.ParseDesign(r) }

// GenerateDesign builds a deterministic synthetic many-cluster design for
// benchmarks, load tests and demos.
func GenerateDesign(name string, n int) *Design { return sna.GenerateDesign(name, n) }

// SampleDesign is a ready-to-run starter design (what `snacheck -sample`
// emits).
func SampleDesign() *Design { return sna.SampleDesign() }

// Summarize folds reports into a Summary.
func Summarize(reports []NetReport) Summary { return sna.Summarize(reports) }

// ParseMethod converts a method name ("macromodel", "superposition",
// "zolotov", "golden") into a Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseErrorPolicy converts "fail-fast" or "continue" into an ErrorPolicy.
func ParseErrorPolicy(s string) (ErrorPolicy, error) { return sna.ParseErrorPolicy(s) }

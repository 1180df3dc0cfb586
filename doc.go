// Package stanoise is a from-scratch Go reproduction of "Modeling the
// Non-Linear Behavior of Library Cells for an Accurate Static Noise
// Analysis" (C. Forzan, D. Pandini — STMicroelectronics, DATE 2005), grown
// into an embeddable design-level static noise analysis engine.
//
// The repository implements the paper's noise-cluster macromodel — a
// non-linear voltage-controlled current source victim driver co-simulated
// with a moment-matching reduced model of the coupled interconnect and
// Thevenin aggressor models — together with every substrate it needs: a
// transistor-level circuit simulator (the golden "ELDO" stand-in), a
// Level-1 device model, a standard-cell library, parasitic generation for
// coupled wires, PRIMA-style model-order reduction, cell
// pre-characterisation, noise rejection curves and a design-level static
// noise analysis flow.
//
// This root package is the public API. Describe a design with Design (or
// ParseDesign / GenerateDesign / SampleDesign), then run it:
//
//	an := stanoise.NewAnalyzer(design, stanoise.Options{})
//	reports, err := an.Analyze(ctx)                 // batch, design order
//	for rep, err := range an.Stream(ctx) { ... }    // streaming, completion order
//
// Analyze and Stream honour context cancellation all the way down into the
// characterisation and transient-engine loops, report failures as typed
// *ClusterError values (errors.As extracts the failing cluster and stage),
// and follow Options.OnError: FailFast or ContinueOnError with errors.Join.
// The paper's tables and figures are regenerated by the public
// stanoise/paper package.
//
// Start with README.md, DESIGN.md (architecture, substitutions and the
// internal→public migration table), docs/ARCHITECTURE.md (layer diagrams:
// compile→session→sweep, the two-tier characterisation cache, the
// warm-start data flow) and EXPERIMENTS.md (measured reproduction of each
// table and figure). The benchmarks in bench_test.go regenerate every
// experiment; the runnable entry points live under cmd/ and examples/.
// Every characterisation sweep seeds its Newton solves from the previous
// sweep point (warm start) and, for transients, from a polynomial
// extrapolation of the previous timesteps (the predictor); DESIGN.md
// "One characterisation path" explains why there is no cold mode.
package stanoise

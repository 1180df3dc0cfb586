package sim

import (
	"context"
	"math"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/linalg"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// nlNMOS is a conducting cmos130-scale NMOS carrying nonlinear gate-charge
// models on both caps: CGS with its transition inside the supply range, CGD
// saturated deep in a tanh tail (P0 = 40) so the Jacobian check also covers
// the dC → 0 regime.
func nlNMOS() device.Params {
	return device.Params{
		Kind: device.NMOS, W: 2e-6, L: 0.13e-6, KP: 340e-6, VT0: 0.35, Lambda: 0.15,
		CGS: device.CapParams{Cp: 1e-15, Co: 1e-15, P0: -0.7, P1: 2.0},
		CGD: device.CapParams{Cp: 1.2e-15, Co: 0.8e-15, P0: 40, P1: 1.2},
	}
}

// capOnlyNMOS is a device that is *only* its gate capacitors: KP = 0 zeroes
// the channel current identically, isolating the nonlinear-cap stamps for
// the charge-conservation battery.
func capOnlyNMOS(cgs device.CapParams) device.Params {
	return device.Params{Kind: device.NMOS, W: 1e-6, L: 0.13e-6, KP: 0, VT0: 0.35, CGS: cgs}
}

// nlJacobianRig is a biased common-source stage around nlNMOS with enough
// structure to exercise every stamp family at once: resistors, a linear
// load cap, two voltage sources (so branch rows participate) and the two
// nonlinear gate caps.
func nlJacobianRig(t *testing.T) *Session {
	t.Helper()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", 1.2)
	ckt.AddVDC("vin", "in", "0", 0.9)
	ckt.AddR("rin", "in", "g", 1e3)
	ckt.AddR("rl", "vdd", "out", 5e3)
	ckt.AddM("m1", "out", "g", "0", nlNMOS())
	ckt.AddC("cl", "out", "0", 10e-15)
	sess, err := NewSession(Compile(ckt), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.prog.nlcaps) != 2 {
		t.Fatalf("rig compiled %d nonlinear caps, want 2", len(sess.prog.nlcaps))
	}
	return sess
}

// TestNLCapJacobianFD holds the full assembled Jacobian of an armed NLMOS
// program — MOSFET channel stamps, linear cap companions and the
// per-iteration nonlinear-cap stamps together — to a central finite
// difference of the residual F(x), column by column, at 1e-6 relative
// tolerance. Base points are chosen away from the Level-1 region
// boundaries (which are genuine model kinks) and cover both the active
// tanh transition of C_GS and the saturated tail of C_GD.
func TestNLCapJacobianFD(t *testing.T) {
	s := nlJacobianRig(t)
	geq := 2.0 / s.dt
	s.stampBase(gmin)
	lin := linalg.NewMatrix(s.size, s.size)
	lin.CopyFrom(s.base)
	for i, cp := range s.prog.caps {
		s.stampConductance(lin, cp.a, cp.b, s.capC[i]*geq)
	}
	// Arm the nonlinear-cap stamps with a nontrivial trapezoidal history so
	// both the C'(u)·rate and C(u)·geq Jacobian terms are live.
	s.nlGeq = geq
	defer func() { s.nlGeq = 0 }()
	for i := range s.prog.nlcaps {
		nc := &s.prog.nlcaps[i]
		s.vPrevNL[i] = 0.3
		s.cPrevNL[i], _ = nc.cp.Eval(0.3)
		s.iPrevNL[i] = 2e-6
	}

	node := func(name string) int {
		id, ok := s.prog.ckt.LookupNode(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		return int(id)
	}
	// Two Newton iterates: transistor in saturation and in triode, both
	// with > 0.1 V margin to the vov and vds region boundaries so the FD
	// never straddles a model kink.
	bases := []map[string]float64{
		{"vdd": 1.2, "in": 0.9, "g": 0.9, "out": 1.0}, // saturation (vov 0.55, vds 1.0)
		{"vdd": 1.2, "in": 0.9, "g": 1.1, "out": 0.3}, // triode (vov 0.75, vds 0.3)
	}
	b := make([]float64, s.size)
	x := make([]float64, s.size)
	f0 := make([]float64, s.size)
	fp := make([]float64, s.size)
	fm := make([]float64, s.size)
	for bi, bias := range bases {
		for i := range x {
			x[i] = 0.01 * float64(i+1) // branch-current entries: arbitrary
		}
		for name, v := range bias {
			x[node(name)] = v
		}
		s.assemble(lin, x, b)
		copy(f0, s.f)
		jac0 := s.jac.Clone()

		const h = 1e-7
		for j := 0; j < s.size; j++ {
			xj := x[j]
			x[j] = xj + h
			s.assemble(lin, x, b)
			copy(fp, s.f)
			x[j] = xj - h
			s.assemble(lin, x, b)
			copy(fm, s.f)
			x[j] = xj

			// Column scale: FD roundoff is relative to the residual
			// magnitude over h, so compare against the column's own scale
			// with a conservative absolute floor.
			scale := 0.0
			for i := 0; i < s.size; i++ {
				scale = math.Max(scale, math.Abs(jac0.At(i, j)))
			}
			tol := 1e-6*scale + 1e-9
			for i := 0; i < s.size; i++ {
				fd := (fp[i] - fm[i]) / (2 * h)
				if d := math.Abs(jac0.At(i, j) - fd); d > tol {
					t.Errorf("base %d: jac[%d][%d] = %.9g, FD %.9g (|Δ| %.3g > tol %.3g)",
						bi, i, j, jac0.At(i, j), fd, d, tol)
				}
			}
		}
	}
}

// TestNLCapChargeConservation drives a lone nonlinear gate cap (KP = 0
// device) through a full charge/hold/discharge cycle and checks the
// time-integrated branch current — measured through the series resistor,
// i.e. through the engine's converged KCL — against the analytic stored
// charge Q(u) = ∫C du at the end of every segment. The companion form's
// i_last/C_last division is exactly what makes this hold when C varies
// between steps; a naive i_last/C(u_now) scheme leaks charge every step of
// the ramps.
func TestNLCapChargeConservation(t *testing.T) {
	cgs := device.CapParams{Cp: 3e-15, Co: 3e-15, P0: -1.2, P1: 2.5}
	vinW := wave.FromPoints(
		[]float64{0, 100e-12, 600e-12, 1200e-12, 1700e-12, 2200e-12},
		[]float64{0, 0, 1.2, 1.2, 0, 0},
	)
	ckt := circuit.New()
	ckt.AddV("vin", "in", "0", vinW)
	ckt.AddR("r", "in", "g", 10e3)
	ckt.AddM("m1", "0", "g", "0", capOnlyNMOS(cgs))
	sess, err := NewSession(Compile(ckt), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transientOf(context.Background(), sess, 2.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Stats().NLStampEvals == 0 {
		t.Fatal("no nonlinear cap stamps were evaluated")
	}

	// Trapezoidal time integral of the cap current i = (v_in − v_g)/R.
	const r = 10e3
	integral := 0.0
	cur := func(k int) float64 { return (res.At("in", k) - res.At("g", k)) / r }
	qMax := cgs.Charge(1.2)
	next := 0
	checkpoints := []struct {
		t    float64
		what string
	}{
		{600e-12, "end of charge ramp"},
		{1200e-12, "end of hold plateau"},
		{1700e-12, "end of discharge ramp"},
		{2200e-12, "end of run"},
	}
	for k := 1; k < res.Steps(); k++ {
		dt := res.Times[k] - res.Times[k-1]
		integral += 0.5 * (cur(k) + cur(k-1)) * dt
		for next < len(checkpoints) && res.Times[k] >= checkpoints[next].t-1e-15 {
			wantQ := cgs.Charge(res.At("g", k))
			if d := math.Abs(integral - wantQ); d > 0.01*qMax {
				t.Errorf("%s (t=%.0f ps): ∮i dt = %.4g C, ΔQ analytic = %.4g C (|Δ| %.3g > 1%% of Qmax %.3g)",
					checkpoints[next].what, res.Times[k]*1e12, integral, wantQ, d, qMax)
			}
			next++
		}
	}
	// The closed cycle must return (essentially) all delivered charge.
	if math.Abs(integral) > 0.01*qMax {
		t.Errorf("closed charge/discharge cycle leaked %.3g C (Qmax %.3g)", integral, qMax)
	}
}

// TestNLCapZeroModulationBitIdentical pins the Co = 0 reduction end to end
// at the engine level: a MOSFET whose gate-charge caps have zero modulation
// (with deliberately nonzero, ignored P0/P1) must produce *bit-identical*
// DC and transient solutions to the same netlist spelled with explicit
// constant AddC capacitors — not merely close ones, because the reduction
// compiles to the very same capPlan stamps in the very same order.
func TestNLCapZeroModulationBitIdentical(t *testing.T) {
	build := func(viaParams bool) *Session {
		p := device.Params{Kind: device.NMOS, W: 2e-6, L: 0.13e-6, KP: 340e-6, VT0: 0.35, Lambda: 0.15}
		if viaParams {
			p.CGD = device.CapParams{Cp: 1.5e-15, P0: 1.0, P1: 2.0}
			p.CGS = device.CapParams{Cp: 2e-15, P0: -0.5, P1: 3.0}
		}
		ckt := circuit.New()
		ckt.AddVDC("vdd", "vdd", "0", 1.2)
		ckt.AddV("vin", "in", "0", wave.Triangle(0, 1.0, 50e-12, 300e-12))
		ckt.AddR("rin", "in", "g", 1e3)
		ckt.AddR("rl", "vdd", "out", 5e3)
		ckt.AddM("m1", "out", "g", "0", p)
		ckt.AddC("cl", "out", "0", 10e-15)
		if !viaParams {
			ckt.AddC("m1.cgd", "g", "out", 1.5e-15)
			ckt.AddC("m1.cgs", "g", "0", 2e-15)
		}
		prog := Compile(ckt)
		if n := len(prog.nlcaps); n != 0 {
			t.Fatalf("Co = 0 caps compiled %d nonlinear plans, want 0", n)
		}
		if _, ok := prog.Cap("m1.cgd"); !ok {
			t.Fatal("reduced cap m1.cgd not registered as a constant capacitor")
		}
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sa, sb := build(true), build(false)

	dca, err := dcOf(sa)
	if err != nil {
		t.Fatal(err)
	}
	dcb, err := dcOf(sb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dca.X {
		if math.Float64bits(dca.X[i]) != math.Float64bits(dcb.X[i]) {
			t.Fatalf("DC unknown %d differs: %x vs %x", i, dca.X[i], dcb.X[i])
		}
	}

	ra, branchA, err := transientBranches(context.Background(), sa, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	rb, branchB, err := transientBranches(context.Background(), sb, 500e-12)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Stats().NLStampEvals != 0 || sb.Stats().NLStampEvals != 0 {
		t.Error("zero-modulation run evaluated nonlinear stamps")
	}
	if ra.Steps() != rb.Steps() {
		t.Fatalf("step counts differ: %d vs %d", ra.Steps(), rb.Steps())
	}
	for n := range ra.nodeV {
		for k := range ra.nodeV[n] {
			if math.Float64bits(ra.nodeV[n][k]) != math.Float64bits(rb.nodeV[n][k]) {
				t.Fatalf("node %d step %d differs: %v vs %v", n, k, ra.nodeV[n][k], rb.nodeV[n][k])
			}
		}
	}
	if k := sameBranches(branchA, branchB); k >= 0 {
		t.Fatalf("branch currents differ at step %d", k)
	}
}

// TestNLCapProgramClassification pins how nonlinear caps interact with the
// linear-fast-path classification: any program carrying an nlCapPlan is
// non-linear (the Jacobian depends on the iterate), the classification
// check names nlcaps explicitly — not just MOSFET presence — and a
// transient over such a program never takes the factored fast path.
func TestNLCapProgramClassification(t *testing.T) {
	ckt := circuit.New()
	ckt.AddV("vin", "in", "0", wave.Triangle(0, 1.0, 50e-12, 200e-12))
	ckt.AddR("r", "in", "g", 10e3)
	ckt.AddM("m1", "0", "g", "0", capOnlyNMOS(device.CapParams{Cp: 2e-15, Co: 2e-15, P0: -1, P1: 2}))
	prog := Compile(ckt)
	if len(prog.nlcaps) != 1 {
		t.Fatalf("compiled %d nonlinear caps, want 1", len(prog.nlcaps))
	}
	if prog.Linear() {
		t.Fatal("program with a nonlinear cap classified as linear")
	}
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transientOf(context.Background(), sess, 400e-12); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.LinearFastPathRuns != 0 {
		t.Errorf("nonlinear-cap transient took the linear fast path %d times", st.LinearFastPathRuns)
	}
	if st.NLStampEvals == 0 {
		t.Error("transient evaluated no nonlinear cap stamps")
	}
	// Every Newton assembly of the step loop stamps each nonlinear cap
	// exactly once, and DC assemblies stamp none (nlGeq = 0 outside the
	// step loop), so the counter is bounded by the iteration count.
	if st.NLStampEvals > st.NewtonIters*int64(len(prog.nlcaps)) {
		t.Errorf("NLStampEvals %d exceeds NewtonIters %d × %d caps",
			st.NLStampEvals, st.NewtonIters, len(prog.nlcaps))
	}
}

// nlGlitchRig is glitchRig on the nonlinear gate-charge card: the same INV
// glitch-propagation bench, with every gate cap voltage-dependent.
func nlGlitchRig(t testing.TB) *circuit.Circuit {
	return glitchRig(t, tech.Tech130().WithNonlinearCaps(), "INV")
}

// TestNLCapPredictorCutsIterations holds the polynomial predictor to its
// contract on the *nonlinear-cap* Newton path: on an NLMOS INV glitch rig
// the predictor must still cut transient Newton iterations by at least 10%
// and converge to the same waveforms — the per-iteration cap re-stamping
// must not break extrapolation-seeded convergence.
func TestNLCapPredictorCutsIterations(t *testing.T) {
	prog := Compile(nlGlitchRig(t))
	if prog.Linear() || len(prog.nlcaps) == 0 {
		t.Fatalf("nl glitch rig should compile nonlinear caps (got %d)", len(prog.nlcaps))
	}
	const tstop = 600e-12
	run := func(pred bool) (Counters, *Result) {
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(pred)
		res, err := transientOf(context.Background(), sess, tstop)
		if err != nil {
			t.Fatal(err)
		}
		return sess.Stats(), res
	}
	cold, coldRes := run(false)
	pred, predRes := run(true)
	if cold.NLStampEvals == 0 || pred.NLStampEvals == 0 {
		t.Fatal("nl glitch rig ran without nonlinear stamps")
	}
	cut := 1 - float64(pred.NewtonIters)/float64(cold.NewtonIters)
	t.Logf("nlcap INV: Newton iterations %d → %d (%.1f%% cut)", cold.NewtonIters, pred.NewtonIters, 100*cut)
	if cut < 0.10 {
		t.Errorf("predictor cut nlcap Newton iterations by %.1f%%, want >= 10%%", 100*cut)
	}
	for i := 0; i < coldRes.Steps(); i++ {
		if dv := math.Abs(coldRes.At("out", i) - predRes.At("out", i)); dv > 1e-6 {
			t.Fatalf("predictor run diverges by %g V at step %d", dv, i)
		}
	}
}

// TestNLCapWarmStartAgrees runs the NLMOS glitch rig cold and warm-started:
// warm mode changes only the DC operating-point seeding, never the
// per-iteration cap stamps, so both transients must converge to the same
// waveforms within solver tolerance.
func TestNLCapWarmStartAgrees(t *testing.T) {
	prog := Compile(nlGlitchRig(t))
	run := func(warm, second bool) *Result {
		sess, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(warm)
		res, err := transientOf(context.Background(), sess, 500e-12)
		if err != nil {
			t.Fatal(err)
		}
		if second {
			// The second run actually consumes the warm state.
			if res, err = transientOf(context.Background(), sess, 500e-12); err != nil {
				t.Fatal(err)
			}
		}
		return res
	}
	cold := run(false, false)
	warm := run(true, true)
	for i := 0; i < cold.Steps(); i++ {
		if dv := math.Abs(cold.At("out", i) - warm.At("out", i)); dv > 1e-5 {
			t.Fatalf("warm-started nlcap run diverges by %g V at step %d", dv, i)
		}
	}
}

// TestNLCapChangesGlitchTransfer is the physical smoke test: the same INV
// glitch rig simulated with constant caps and with the nonlinear
// gate-charge model must disagree measurably at the output — voltage-
// dependent gate charge redistributes during the glitch — while staying in
// the same physical ballpark (same supply rails).
func TestNLCapChangesGlitchTransfer(t *testing.T) {
	run := func(tc *tech.Tech) *Result {
		sess, err := NewSession(Compile(glitchRig(t, tc, "INV")), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		res, err := transientOf(context.Background(), sess, 600e-12)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lin := run(tech.Tech130())
	nl := run(tech.Tech130().WithNonlinearCaps())
	maxDiff := 0.0
	for i := 0; i < lin.Steps(); i++ {
		maxDiff = math.Max(maxDiff, math.Abs(lin.At("out", i)-nl.At("out", i)))
	}
	t.Logf("max |Δout| between constant-cap and nlcap INV glitch: %.4g V", maxDiff)
	if maxDiff < 1e-3 {
		t.Errorf("nonlinear gate charge changed the glitch transfer by only %g V, want >= 1 mV", maxDiff)
	}
	if maxDiff > 0.5*tech.Tech130().VDD {
		t.Errorf("nonlinear gate charge changed the glitch transfer by %g V — model likely broken", maxDiff)
	}
}

// BenchmarkNLMOSTransient measures the nonlinear-cap Newton path on the
// INV glitch rig — the per-iteration stamp cost the CI bench artifact
// tracks next to the constant-cap benchmarks.
func BenchmarkNLMOSTransient(b *testing.B) {
	prog := Compile(nlGlitchRig(b))
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	res := &Result{}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.RunTransient(ctx, res, 600e-12, nil); err != nil {
			b.Fatal(err)
		}
	}
}

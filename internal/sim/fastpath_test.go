package sim

import (
	"context"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/interconnect"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// rcLadderCircuit is a 6-section RC ladder driven by a saturated ramp —
// the canonical linear-only transient load.
func rcLadderCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	ckt := circuit.New()
	ckt.AddV("vin", "n0", "0", wave.SaturatedRamp(0, 1.2, 20e-12, 80e-12))
	for i := 0; i < 6; i++ {
		a := "n" + string(rune('0'+i))
		b := "n" + string(rune('1'+i))
		ckt.AddR("r"+a, a, b, 150)
		ckt.AddC("c"+b, b, "0", 20e-15)
	}
	return ckt
}

// rcGlitchCircuit couples a triangle glitch through a cap divider onto a
// resistively held victim — linear, with both V- and I-sources.
func rcGlitchCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	ckt := circuit.New()
	ckt.AddV("vagg", "agg", "0", wave.Triangle(0, 1.0, 50e-12, 200e-12))
	ckt.AddC("cc", "agg", "vic", 15e-15)
	ckt.AddR("rhold", "vic", "0", 2000)
	ckt.AddC("cg", "vic", "0", 40e-15)
	ckt.AddI("inoise", "0", "vic", wave.Triangle(0, 20e-6, 120e-12, 100e-12))
	return ckt
}

// busCircuit is the two-line coupled interconnect bundle the mor golden
// comparisons use, victim driven by a ramp and aggressor glitching.
func busCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	bus, err := interconnect.NewBus(tech.Tech130(), "M4", 8,
		interconnect.LineSpec{Name: "vic", LengthUm: 500},
		interconnect.LineSpec{Name: "agg", LengthUm: 500},
	)
	if err != nil {
		t.Fatal(err)
	}
	ckt := circuit.New()
	bus.Build(ckt)
	ckt.AddV("vs", bus.InNode(0), "0", wave.SaturatedRamp(0, 1.2, 50e-12, 50e-12))
	ckt.AddV("va", bus.InNode(1), "0", wave.Triangle(0, 1.2, 200e-12, 150e-12))
	ckt.AddC("clv", bus.OutNode(0), "0", 10e-15)
	return ckt
}

var fastPathCircuits = []struct {
	name  string
	build func(testing.TB) *circuit.Circuit
	tstop float64
}{
	{"rc_ladder", rcLadderCircuit, 1e-9},
	{"rc_glitch", rcGlitchCircuit, 600e-12},
	{"interconnect_bus", busCircuit, 1e-9},
}

// TestLinearFastPathBitIdentical runs each linear netlist twice on the
// same compiled Program — once on the fast path, once with the dense
// Newton forced — and requires bitwise-identical results. The fast path hoists
// the factorisation out of a loop whose matrix never changes, so any bit
// of divergence means it stopped mirroring newton's arithmetic.
func TestLinearFastPathBitIdentical(t *testing.T) {
	for _, tc := range fastPathCircuits {
		t.Run(tc.name, func(t *testing.T) {
			prog := Compile(tc.build(t))
			if !prog.Linear() {
				t.Fatalf("circuit %s compiled non-linear", tc.name)
			}
			fastSess, err := NewSession(prog, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			fastRes, fastBranches, err := transientBranches(context.Background(), fastSess, tc.tstop)
			if err != nil {
				t.Fatal(err)
			}

			slowSess, err := NewSession(prog, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			slowSess.forceDense = true
			slowRes, slowBranches, err := transientBranches(context.Background(), slowSess, tc.tstop)
			if err != nil {
				t.Fatal(err)
			}

			if fs, ss := fastSess.Stats(), slowSess.Stats(); fs.NewtonIters != 0 {
				t.Errorf("fast path spent %d Newton iterations, want 0", fs.NewtonIters)
			} else if fs.LinearFastPathRuns != 1 || ss.LinearFastPathRuns != 0 {
				t.Errorf("LinearFastPathRuns fast=%d slow=%d, want 1/0",
					fs.LinearFastPathRuns, ss.LinearFastPathRuns)
			} else if fs.LowRankRuns != 0 {
				t.Errorf("linear run counted %d low-rank runs; it is the r = 0 case", fs.LowRankRuns)
			} else if ss.NewtonIters == 0 {
				t.Error("forced Newton path spent no iterations; hook broken")
			}

			if got, want := fastRes.Steps(), slowRes.Steps(); got != want {
				t.Fatalf("step counts differ: fast %d, newton %d", got, want)
			}
			for i, tm := range fastRes.Times {
				if tm != slowRes.Times[i] {
					t.Fatalf("time grid differs at step %d: %g vs %g", i, tm, slowRes.Times[i])
				}
			}
			for n := range fastRes.nodeV {
				for i := range fastRes.nodeV[n] {
					if fastRes.nodeV[n][i] != slowRes.nodeV[n][i] {
						t.Fatalf("node %d differs at step %d: %x vs %x",
							n, i, fastRes.nodeV[n][i], slowRes.nodeV[n][i])
					}
				}
			}
			if i := sameBranches(fastBranches, slowBranches); i >= 0 {
				t.Fatalf("branch currents differ at step %d: %x vs %x", i, fastBranches[i], slowBranches[i])
			}
		})
	}
}

// TestLinearFastPathCounters pins the process-wide counter contract the CI
// smoke greps for: a pure-RC transient advances LinearFastPathRuns and
// TransientSteps but leaves NewtonIters untouched.
func TestLinearFastPathCounters(t *testing.T) {
	sess, err := NewSession(Compile(rcLadderCircuit(t)), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	before := Snapshot()
	res, err := transientOf(context.Background(), sess, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	d := Snapshot().Sub(before)
	if d.NewtonIters != 0 {
		t.Errorf("NewtonIters advanced by %d on a linear run, want 0", d.NewtonIters)
	}
	if d.LinearFastPathRuns != 1 {
		t.Errorf("LinearFastPathRuns advanced by %d, want 1", d.LinearFastPathRuns)
	}
	if want := int64(res.Steps() - 1); d.TransientSteps != want {
		t.Errorf("TransientSteps advanced by %d, want %d", d.TransientSteps, want)
	}
	if d.DC != 1 || d.Transient != 1 {
		t.Errorf("DC/Transient advanced by %d/%d, want 1/1", d.DC, d.Transient)
	}
}

// TestLinearFastPathSeeded pins that seeding leaves a linear program on
// the fast path, which has no Newton iterations to seed: every seeded
// linear transient counts one fast-path run and zero Newton iterations,
// the second run on the session included, and records the unseeded run's
// samples bit for bit.
func TestLinearFastPathSeeded(t *testing.T) {
	prog := Compile(rcLadderCircuit(t))
	cold, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := transientOf(context.Background(), cold, 200e-12)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	sess.Seed(true)
	for run := 1; run <= 2; run++ {
		before := sess.Stats()
		res, err := transientOf(context.Background(), sess, 200e-12)
		if err != nil {
			t.Fatal(err)
		}
		d := sess.Stats().Sub(before)
		if d.LinearFastPathRuns != 1 || d.NewtonIters != 0 {
			t.Errorf("seeded run %d: %d fast-path runs and %d Newton iterations, want 1 and 0", run, d.LinearFastPathRuns, d.NewtonIters)
		}
		if res.Steps() != want.Steps() {
			t.Fatalf("seeded run %d: %d samples, unseeded run %d", run, res.Steps(), want.Steps())
		}
		if i := sameSamples(res, want); i >= 0 {
			t.Errorf("seeded run %d: sample %d differs from the unseeded run", run, i)
		}
	}
}

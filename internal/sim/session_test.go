package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// The compiled two-phase path must be numerically indistinguishable from
// building a fresh circuit per run: every matrix stamp, Newton update and
// LU operation performs the identical arithmetic, so the comparison here
// is bit-for-bit (==), not tolerance-based. The cells and technology cards
// mirror the golden fixtures (INV and NAND2 on both tech cards).

// freshDC solves the operating point of c on a fresh session, seeding the
// Newton guesses of the named nodes.
func freshDC(c *circuit.Circuit, guess map[string]float64) (*DCResult, error) {
	s, err := NewSession(Compile(c), 0)
	if err != nil {
		return nil, err
	}
	for name, v := range guess {
		s.SetGuess(name, v)
	}
	return dcOf(s)
}

// freshTransient runs c to tstop on a fresh session with step dt.
func freshTransient(ctx context.Context, c *circuit.Circuit, dt, tstop float64) (*Result, error) {
	s, err := NewSession(Compile(c), dt)
	if err != nil {
		return nil, err
	}
	return transientOf(ctx, s, tstop)
}

// dcOf solves the session's operating point into a new result.
func dcOf(s *Session) (*DCResult, error) {
	res := &DCResult{}
	if err := s.RunDC(res); err != nil {
		return nil, err
	}
	return res, nil
}

// transientOf runs the session to tstop into a new result.
func transientOf(ctx context.Context, s *Session, tstop float64) (*Result, error) {
	res := &Result{}
	if err := s.RunTransient(ctx, res, tstop, nil); err != nil {
		return nil, err
	}
	return res, nil
}

func equivCells(t *testing.T) []*cell.Cell {
	t.Helper()
	var out []*cell.Cell
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			out = append(out, cell.MustNew(tc, kind, 1))
		}
	}
	return out
}

// buildForceBench builds the load-curve characterisation bench: cell with
// all inputs sourced and the output forced.
func buildForceBench(t *testing.T, cl *cell.Cell, st cell.State, noisyPin string, vin, vout float64) *circuit.Circuit {
	t.Helper()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		v := cl.PinVoltage(st[in])
		if in == noisyPin {
			v = vin
		}
		ckt.AddVDC("v_"+in, node, "0", v)
	}
	if err := cl.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddVDC("vforce", "out", "0", vout)
	return ckt
}

// TestSessionDCMatchesOneShotBitForBit sweeps a DC grid through one reused
// Session and through a fresh session on each point's own circuit, and
// requires the full unknown vectors to agree exactly.
func TestSessionDCMatchesOneShotBitForBit(t *testing.T) {
	for _, cl := range equivCells(t) {
		cl := cl
		t.Run(fmt.Sprintf("%s_vdd%.1f", cl.Name(), cl.Tech.VDD), func(t *testing.T) {
			noisy := cl.Inputs()[len(cl.Inputs())-1]
			st, err := cl.SensitizedState(noisy, true)
			if err != nil {
				t.Fatal(err)
			}
			vdd := cl.Tech.VDD
			quietOut := cl.PinVoltage(cl.Logic(st))

			// Compiled path: one session, parameters mutated per point.
			base := buildForceBench(t, cl, st, noisy, cl.PinVoltage(st[noisy]), 0)
			prog := Compile(base)
			sess, err := NewSession(prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			hNoisy := prog.MustSource("v_" + noisy)
			hForce := prog.MustSource("vforce")

			grid := []float64{-0.2 * vdd, 0, 0.35 * vdd, 0.7 * vdd, vdd, 1.2 * vdd}
			for _, vin := range grid {
				for _, vout := range grid {
					sess.SetSourceDC(hNoisy, vin)
					sess.SetSourceDC(hForce, vout)
					g := 0.5 * (vout + quietOut)
					sess.SetGuess("dut.n1", g)
					sess.SetGuess("dut.n2", g)
					got, err := dcOf(sess)
					if err != nil {
						t.Fatalf("session DC vin=%g vout=%g: %v", vin, vout, err)
					}

					ckt := buildForceBench(t, cl, st, noisy, vin, vout)
					want, err := freshDC(ckt, map[string]float64{"dut.n1": g, "dut.n2": g})
					if err != nil {
						t.Fatalf("fresh DC vin=%g vout=%g: %v", vin, vout, err)
					}
					if len(got.X) != len(want.X) {
						t.Fatalf("unknown count mismatch: %d vs %d", len(got.X), len(want.X))
					}
					for i := range got.X {
						if got.X[i] != want.X[i] {
							t.Fatalf("vin=%g vout=%g: X[%d] = %v (session) vs %v (fresh)",
								vin, vout, i, got.X[i], want.X[i])
						}
					}
				}
			}
		})
	}
}

// buildGlitchBench builds the transient glitch bench: cell with a
// triangular glitch on the noisy pin into a lumped load.
func buildGlitchBench(t *testing.T, cl *cell.Cell, st cell.State, noisyPin string, w *wave.Waveform, load float64) *circuit.Circuit {
	t.Helper()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		if in == noisyPin {
			ckt.AddV("v_"+in, node, "0", w)
		} else {
			ckt.AddVDC("v_"+in, node, "0", cl.PinVoltage(st[in]))
		}
	}
	if err := cl.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cload", "out", "0", load)
	return ckt
}

// TestSessionTransientMatchesOneShotBitForBit sweeps glitch heights,
// widths and loads through one reused Session and through a fresh session
// on each point's own circuit, on every transient run method: a full
// RunTransient, a RunTransient that a predicate stops mid-run, and a
// RunTransientAdaptive. Every run of the reused session comes after other
// sources, loads and methods have run on it, into one reused Result. The
// recorded time axis and every node's samples must agree bit for bit, and
// the run's counters must equal the fresh session's.
func TestSessionTransientMatchesOneShotBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweep is slow")
	}
	const t0 = 100e-12
	ctx := context.Background()
	for _, cl := range equivCells(t) {
		cl := cl
		t.Run(fmt.Sprintf("%s_vdd%.1f", cl.Name(), cl.Tech.VDD), func(t *testing.T) {
			noisy := cl.Inputs()[0]
			st, err := cl.SensitizedState(noisy, true)
			if err != nil {
				t.Fatal(err)
			}
			quietIn := cl.PinVoltage(st[noisy])
			vdd := cl.Tech.VDD

			base := buildGlitchBench(t, cl, st, noisy, wave.Constant(quietIn), 1e-15)
			prog := Compile(base)
			sess, err := NewSession(prog, 2e-12)
			if err != nil {
				t.Fatal(err)
			}
			hNoisy := prog.MustSource("v_" + noisy)
			hLoad := prog.MustCap("cload")

			nodes := base.NodeNames()
			var got Result
			for _, h := range []float64{0.4 * vdd, 0.9 * vdd} {
				for _, width := range []float64{150e-12, 400e-12} {
					for _, load := range []float64{10e-15, 60e-15} {
						glitch := wave.Triangle(quietIn, h, t0, width)
						tstop := t0 + width + 400e-12
						fullSteps := 0
						for _, mode := range []string{"full", "stopped", "adaptive"} {
							// run runs the mode on s, a session of ckt; the
							// stopped run ends halfway up the glitch's rise.
							run := func(s *Session, ckt *circuit.Circuit, res *Result) error {
								switch mode {
								case "stopped":
									in, _ := ckt.LookupNode("in_" + noisy)
									return s.RunTransient(ctx, res, tstop, func(x []float64) bool {
										return math.Abs(x[in]-quietIn) >= h/2
									})
								case "adaptive":
									return s.RunTransientAdaptive(ctx, res, tstop)
								}
								return s.RunTransient(ctx, res, tstop, nil)
							}
							at := fmt.Sprintf("%s h=%g w=%g load=%g", mode, h, width, load)
							sess.SetSource(hNoisy, glitch)
							sess.SetLoad(hLoad, load)
							before := sess.Stats()
							if err := run(sess, base, &got); err != nil {
								t.Fatalf("%s: session: %v", at, err)
							}
							work := sess.Stats().Sub(before)

							ckt := buildGlitchBench(t, cl, st, noisy, glitch, load)
							fresh, err := NewSession(Compile(ckt), 2e-12)
							if err != nil {
								t.Fatal(err)
							}
							var want Result
							if err := run(fresh, ckt, &want); err != nil {
								t.Fatalf("%s: fresh: %v", at, err)
							}
							if work != fresh.Stats() {
								t.Fatalf("%s: counters %+v (session) vs %+v (fresh)", at, work, fresh.Stats())
							}
							switch mode {
							case "full":
								fullSteps = want.Steps()
							case "stopped":
								if want.Steps() >= fullSteps {
									t.Fatalf("%s: stopped run recorded %d of %d samples", at, want.Steps(), fullSteps)
								}
							}
							if got.Steps() != want.Steps() {
								t.Fatalf("%s: step count mismatch: %d vs %d", at, got.Steps(), want.Steps())
							}
							for i := range want.Times {
								if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) {
									t.Fatalf("%s: time %d: %v vs %v", at, i, got.Times[i], want.Times[i])
								}
							}
							for _, n := range nodes {
								for i := range want.Times {
									if g, w := got.At(n, i), want.At(n, i); math.Float64bits(g) != math.Float64bits(w) {
										t.Fatalf("%s: node %s step %d: %v vs %v", at, n, i, g, w)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestNewtonLoopAllocFree asserts the warm steady-state Newton loop —
// guess, source RHS, assemble, factor, solve, damp — allocates zero bytes
// once a session is open. This is the invariant that keeps long
// characterisation sweeps out of the allocator and the GC.
func TestNewtonLoopAllocFree(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "NAND2", 1)
	st, err := cl.SensitizedState("B", true)
	if err != nil {
		t.Fatal(err)
	}
	ckt := buildForceBench(t, cl, st, "B", 0.5, 0.8)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up once (first run may fault in lazy state).
	if _, err := dcOf(sess); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		sess.initialGuess(sess.x)
		sess.sourceRHS(sess.rhs, 0)
		if err := sess.newton(sess.base, sess.x, sess.rhs, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Newton loop allocates %.1f objects per solve, want 0", allocs)
	}
}

// TestSessionTransientInnerLoopAllocs bounds the per-run transient
// allocation count: everything left is result recording (preallocated
// slices) and the waveform swap — the Newton loop itself contributes
// nothing (see TestNewtonLoopAllocFree).
func TestSessionTransientReusesWorkspaces(t *testing.T) {
	cl := cell.MustNew(tech.Tech130(), "INV", 1)
	st := cell.State{"A": false}
	ckt := buildGlitchBench(t, cl, st, "A", wave.Constant(0), 20e-15)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	hNoisy := prog.MustSource("v_A")
	glitch := wave.Triangle(0, 0.8, 100e-12, 200e-12)
	run := func() *Result {
		sess.SetSource(hNoisy, glitch)
		res, err := transientOf(context.Background(), sess, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	second := run()
	// Results are independent allocations: re-running must not corrupt a
	// previously returned result.
	for i := range first.Times {
		if first.Times[i] != second.Times[i] {
			t.Fatalf("time grid differs at %d", i)
		}
	}
	fw, sw := first.Waveform("out"), second.Waveform("out")
	for i := range fw.V {
		if fw.V[i] != sw.V[i] {
			t.Fatalf("re-run diverged at step %d: %v vs %v", i, fw.V[i], sw.V[i])
		}
	}
}

// TestSessionCountersMatchOneShot verifies the invocation counters a run
// publishes: a RunTransient performs exactly one DC (operating point) and
// one transient.
func TestSessionCountersMatchOneShot(t *testing.T) {
	c := circuit.New()
	c.AddV("vs", "in", "0", wave.SaturatedRamp(0, 1, 0, 1e-12))
	c.AddR("r", "in", "out", 1000)
	c.AddC("c", "out", "0", 1e-12)
	sess, err := NewSession(Compile(c), 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	before := Snapshot()
	if _, err := transientOf(context.Background(), sess, 1e-9); err != nil {
		t.Fatal(err)
	}
	d := Snapshot().Sub(before)
	if d.DC != 1 || d.Transient != 1 {
		t.Fatalf("counters after RunTransient = %+v, want DC=1 Transient=1", d)
	}
	before = Snapshot()
	if _, err := dcOf(sess); err != nil {
		t.Fatal(err)
	}
	d = Snapshot().Sub(before)
	if d.DC != 1 || d.Transient != 0 {
		t.Fatalf("counters after RunDC = %+v, want DC=1 Transient=0", d)
	}
}

package sim

import (
	"context"
	"fmt"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// Allocation-tracking benchmarks for the two-phase engine: the one-shot
// variants open a fresh session, paying Compile + NewSession on every
// call; the session variants pay them once and only mutate parameters —
// the shape of every characterisation sweep. Before/after numbers live in
// EXPERIMENTS.md.

func benchDCCircuit(b *testing.B) (*circuit.Circuit, float64) {
	b.Helper()
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", t.VDD)
	ckt.AddVDC("v_A", "in_A", "0", 0)
	if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
		b.Fatal(err)
	}
	ckt.AddVDC("vforce", "out", "0", t.VDD)
	return ckt, t.VDD
}

func BenchmarkDCOneShot(b *testing.B) {
	ckt, _ := benchDCCircuit(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshDC(ckt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCSession(b *testing.B) {
	ckt, vdd := benchDCCircuit(b)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	hForce := prog.MustSource("vforce")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mutate the forced voltage like a sweep point would.
		sess.SetSourceDC(hForce, vdd*float64(i%7)/6)
		if _, err := dcOf(sess); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionParallel exercises the documented concurrency model —
// one immutable Program shared across goroutines, one Session per
// goroutine — and is run under -race in CI, where unsynchronised state
// leaking between sessions through the Program would surface.
func BenchmarkSessionParallel(b *testing.B) {
	ckt, vdd := benchDCCircuit(b)
	prog := Compile(ckt)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sess, err := NewSession(prog, 0)
		if err != nil {
			b.Error(err)
			return
		}
		hForce := prog.MustSource("vforce")
		i := 0
		for pb.Next() {
			sess.SetSourceDC(hForce, vdd*float64(i%7)/6)
			if _, err := dcOf(sess); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func benchTransientCircuit(b *testing.B) *circuit.Circuit {
	b.Helper()
	t := tech.Tech130()
	inv := cell.MustNew(t, "INV", 1)
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", t.VDD)
	ckt.AddV("v_A", "in_A", "0", wave.Triangle(0, 0.8, 100e-12, 300e-12))
	if err := inv.Build(ckt, "dut", map[string]string{"A": "in_A"}, "out", "vdd"); err != nil {
		b.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", 30e-15)
	return ckt
}

func BenchmarkTransientOneShot(b *testing.B) {
	ckt := benchTransientCircuit(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshTransient(context.Background(), ckt, 1e-12, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientSession(b *testing.B) {
	ckt := benchTransientCircuit(b)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	hGlitch := prog.MustSource("v_A")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mutate the glitch like a characterisation probe would.
		sess.SetSource(hGlitch, wave.Triangle(0, 0.7+0.01*float64(i%10), 100e-12, 300e-12))
		if _, err := transientOf(context.Background(), sess, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientSessionInto is BenchmarkTransientSession on the
// allocation-free entry point: result storage is reused across runs, so
// the delta against the RunTransient variant is the per-run cost of
// re-newing nsteps × nodes slices.
func BenchmarkTransientSessionInto(b *testing.B) {
	ckt := benchTransientCircuit(b)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	hGlitch := prog.MustSource("v_A")
	res := &Result{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.SetSource(hGlitch, wave.Triangle(0, 0.7+0.01*float64(i%10), 100e-12, 300e-12))
		if err := sess.RunTransient(context.Background(), res, 1e-9, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientPredictor is the glitch-rig transient with Newton
// seeding on — the predictor's Newton-iteration cut measured by
// TestPredictorCutsNewtonIterations, expressed as wall time against
// BenchmarkTransientSessionInto; each run after the first also
// warm-starts its operating point.
func BenchmarkTransientPredictor(b *testing.B) {
	ckt := benchTransientCircuit(b)
	prog := Compile(ckt)
	sess, err := NewSession(prog, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	sess.Seed(true)
	hGlitch := prog.MustSource("v_A")
	res := &Result{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.SetSource(hGlitch, wave.Triangle(0, 0.7+0.01*float64(i%10), 100e-12, 300e-12))
		if err := sess.RunTransient(context.Background(), res, 1e-9, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientLinearFastPath and BenchmarkTransientLinearNewton run
// the identical coupled-interconnect transient with and without the
// factor-once fast path; the ratio is the O(n³)→O(n²) per-step saving on
// a linear topology (results are bit-identical, see
// TestLinearFastPathBitIdentical).
func BenchmarkTransientLinearFastPath(b *testing.B) {
	benchLinearTransient(b, false)
}

func BenchmarkTransientLinearNewton(b *testing.B) {
	benchLinearTransient(b, true)
}

func benchLinearTransient(b *testing.B, forceNewton bool) {
	b.Helper()
	sess, err := NewSession(Compile(busCircuit(b)), 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	sess.forceDense = forceNewton
	res := &Result{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.RunTransient(context.Background(), res, 1e-9, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientLowRank runs a golden-shaped transient — a NAND2
// victim and an INV aggressor on coupled RC lines with NLMOS gate charge —
// at 27 unknowns (8 segments) and 91 (40 segments), on the factored step
// loop and forced onto the dense Newton. Both take the same Newton
// iterations (newton-iters/op); the ns/op ratio is the per-iteration
// saving of substituting against one factor of the step matrix plus a
// rank-7 correction instead of re-factoring the whole Jacobian.
func BenchmarkTransientLowRank(b *testing.B) {
	tc := tech.Tech130().WithNonlinearCaps()
	for _, segments := range []int{8, 40} {
		prog := Compile(goldenShapedCircuit(b, tc, "NAND2", segments))
		for _, dense := range []bool{false, true} {
			path := "factored"
			if dense {
				path = "dense"
			}
			b.Run(fmt.Sprintf("n%d/%s", prog.Size(), path), func(b *testing.B) {
				sess, err := NewSession(prog, 1e-12)
				if err != nil {
					b.Fatal(err)
				}
				sess.forceDense = dense
				// One warm-up run sizes the result and the session's
				// buffers, so allocs/op is the warm loop's: zero.
				res := &Result{}
				if err := sess.RunTransient(context.Background(), res, 600e-12, nil); err != nil {
					b.Fatal(err)
				}
				before := sess.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sess.RunTransient(context.Background(), res, 600e-12, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sess.Stats().Sub(before).NewtonIters)/float64(b.N), "newton-iters/op")
			})
		}
	}
}

// BenchmarkNewtonSolve times one linear solve of the dense Newton on cell
// benches, the Jacobian assembled mid-glitch: the INV and NAND2
// propagation benches (5 and 8 unknowns, 1 and 2 free nodes) and the
// NAND2 load-curve bench (9 unknowns, 1 free node), on the free-node
// solve and on the dense LU. Both give the same update bit for bit
// (TestFreeSolveMatchesDense); the ns/op ratio is the saving of
// eliminating only the free nodes' columns.
func BenchmarkNewtonSolve(b *testing.B) {
	tc := tech.Tech130()
	for _, bench := range []struct {
		kind  string
		force bool // the load-curve bench: out forced
	}{{"INV", false}, {"NAND2", false}, {"NAND2", true}} {
		cl := cell.MustNew(tc, bench.kind, 1)
		st, err := cl.SensitizedState("A", true)
		if err != nil {
			b.Fatal(err)
		}
		ckt, err := cl.Bench(st)
		if err != nil {
			b.Fatal(err)
		}
		if bench.force {
			ckt.AddVDC("vforce", "out", "0", 0.6*tc.VDD)
		} else {
			ckt.AddC("cload", "out", "0", 20e-15)
		}
		prog := Compile(ckt)
		for _, dense := range []bool{false, true} {
			path := "free"
			if dense {
				path = "dense"
			}
			b.Run(fmt.Sprintf("n%d/%s", prog.Size(), path), func(b *testing.B) {
				sess, err := NewSession(prog, 1e-12)
				if err != nil {
					b.Fatal(err)
				}
				sess.forceDense = dense
				sess.SetSource(prog.MustSource("v_A"), wave.Triangle(0, 0.8*tc.VDD, 100e-12, 200e-12))
				// Run to the glitch's peak; the session's step matrix and
				// right-hand side are then the last step's.
				var res Result
				if err := sess.RunTransient(context.Background(), &res, 200e-12, nil); err != nil {
					b.Fatal(err)
				}
				lin := sess.lin
				if bench.force {
					lin = sess.base
				}
				sess.assemble(lin, sess.x, sess.b)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					if err := sess.solveNewton(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

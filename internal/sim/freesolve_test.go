package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/linalg"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// twin is one program opened twice: free on its own path, dense forced
// onto the dense LU. Every run goes to both, and the test fails on the
// first bit in which they differ.
type twin struct {
	t           *testing.T
	name        string
	free, dense *Session
}

func newTwin(t *testing.T, name string, prog *Program, dt float64, seed bool) *twin {
	t.Helper()
	tw := &twin{t: t, name: name}
	for _, s := range []**Session{&tw.free, &tw.dense} {
		sess, err := NewSession(prog, dt)
		if err != nil {
			t.Fatal(err)
		}
		sess.Seed(seed)
		*s = sess
	}
	tw.dense.forceDense = true
	return tw
}

// both applies a parameter mutation to both sessions.
func (tw *twin) both(f func(s *Session)) {
	f(tw.free)
	f(tw.dense)
}

// dc runs RunDC on both sessions and compares every unknown, source
// currents included.
func (tw *twin) dc(what string) {
	tw.t.Helper()
	var a, b DCResult
	ea, eb := tw.free.RunDC(&a), tw.dense.RunDC(&b)
	if (ea == nil) != (eb == nil) {
		tw.t.Fatalf("%s %s: errors %v / %v", tw.name, what, ea, eb)
	}
	if ea == nil {
		tw.sameX(what, a.X, b.X)
	}
}

func (tw *twin) sameX(what string, a, b []float64) {
	tw.t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			tw.t.Fatalf("%s %s: unknown %d is %v on the free-node solve, %v on the dense LU", tw.name, what, i, a[i], b[i])
		}
	}
}

// transient runs a fixed-grid transient on both sessions, each stopped by
// its own session's stop (nil runs to tstop), and compares every sample
// with its branch currents. It returns the samples recorded.
func (tw *twin) transient(tstop float64, stop func(s *Session) func(x []float64) bool) int {
	tw.t.Helper()
	run := func(s *Session) (*Result, [][]float64) {
		var res Result
		var xs [][]float64
		var st func(x []float64) bool
		if stop != nil {
			st = stop(s)
		}
		err := s.RunTransient(context.Background(), &res, tstop, func(x []float64) bool {
			xs = append(xs, append([]float64(nil), x...))
			return st != nil && st(x)
		})
		if err != nil {
			tw.t.Fatalf("%s transient: %v", tw.name, err)
		}
		return &res, xs
	}
	a, xa := run(tw.free)
	b, xb := run(tw.dense)
	if a.Steps() != b.Steps() || sameSamples(a, b) >= 0 {
		tw.t.Fatalf("%s transient: %d / %d samples, first difference at %d", tw.name, a.Steps(), b.Steps(), sameSamples(a, b))
	}
	for k := range xa {
		tw.sameX(fmt.Sprintf("transient sample %d", k), xa[k], xb[k])
	}
	return a.Steps()
}

// adaptive runs an adaptive transient on both sessions and compares every
// accepted sample.
func (tw *twin) adaptive(tstop float64) {
	tw.t.Helper()
	var a, b Result
	if err := tw.free.RunTransientAdaptive(context.Background(), &a, tstop); err != nil {
		tw.t.Fatalf("%s adaptive: %v", tw.name, err)
	}
	if err := tw.dense.RunTransientAdaptive(context.Background(), &b, tstop); err != nil {
		tw.t.Fatalf("%s adaptive: %v", tw.name, err)
	}
	if a.Steps() != b.Steps() || sameSamples(&a, &b) >= 0 {
		tw.t.Fatalf("%s adaptive: %d / %d samples, first difference at %d", tw.name, a.Steps(), b.Steps(), sameSamples(&a, &b))
	}
}

// done compares the two sessions' counters and checks that the free one
// took the free-node solve and the dense one never did.
func (tw *twin) done() {
	tw.t.Helper()
	if a, b := tw.free.Stats(), tw.dense.Stats(); a != b {
		tw.t.Fatalf("%s: counters %+v on the free-node solve, %+v on the dense LU", tw.name, a, b)
	}
	if tw.free.tally.free == 0 || tw.dense.tally.free != 0 {
		tw.t.Fatalf("%s: free-node solves %d (want > 0) and %d forced dense (want 0)", tw.name, tw.free.tally.free, tw.dense.tally.free)
	}
}

// sweepLoadCurve runs a grid×grid load-curve sweep the way charlib does:
// the noisy pin and the forced output stepped over the rails and a margin,
// the stack nodes seeded between the output and its quiet level.
func sweepLoadCurve(tw *twin, prog *Program, cl *cell.Cell, quietOut float64, pin string, grid int) {
	vdd := cl.Tech.VDD
	hIn, hOut := prog.MustSource("v_"+pin), prog.MustSource("vforce")
	for iv := range grid {
		vin := -0.2*vdd + float64(iv)*1.4*vdd/float64(grid-1)
		for io := range grid {
			vout := -0.2*vdd + float64(io)*1.4*vdd/float64(grid-1)
			tw.both(func(s *Session) {
				s.SetSourceDC(hIn, vin)
				s.SetSourceDC(hOut, vout)
				s.SetGuess("dut.n1", 0.5*(vout+quietOut))
				s.SetGuess("dut.n2", 0.5*(vout+quietOut))
			})
			tw.dc(fmt.Sprintf("load curve vin=%.3g vout=%.3g", vin, vout))
		}
	}
}

// TestFreeSolveMatchesDense runs generated cell benches on the free-node
// solve and forced onto the dense LU, and requires every sample, every DC
// unknown (source currents included) and every counter to agree by
// Float64bits and ==. The benches are INV, NAND2, NOR2 and AOI21 on every
// pin in both sensitised states, on both cards at ss, tt, ff and a Monte
// Carlo corner, with and without NLMOS gate charge, into loads of 0 to
// 300 fF: a seeded or cold load-curve sweep, a fixed-grid glitch transient
// with the predictor on or off (stopped by the certificate where it
// applies) and an adaptive one. One NAND2 load-curve bench per card also
// runs the gmin-stepping ladder.
func TestFreeSolveMatchesDense(t *testing.T) {
	var corners []tech.Corner
	for _, name := range []string{"ss", "tt", "ff"} {
		c, err := tech.CornerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		corners = append(corners, c)
	}
	corners = append(corners, tech.SampleCorners(1, 7, tech.SampleSpec{})...)
	loads := []float64{0, 10e-15, 120e-15, 300e-15}
	heights := []float64{0.3, 0.7, 1.0}
	benches, stopped := 0, 0
	for _, base := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		gminRun := false
		for _, corner := range corners {
			for _, nl := range []bool{false, true} {
				tc := corner.Apply(base)
				if nl {
					tc = tc.WithNonlinearCaps()
				}
				for _, kind := range []string{"INV", "NAND2", "NOR2", "AOI21"} {
					cl := cell.MustNew(tc, kind, 1)
					for _, pin := range cl.Inputs() {
						for _, outHigh := range []bool{true, false} {
							st, err := cl.SensitizedState(pin, outHigh)
							if err != nil {
								t.Fatal(err)
							}
							benches++
							seed := benches%2 == 0
							name := fmt.Sprintf("%s %s nlcaps=%v %s/%s out=%v seed=%v", base.Name, corner.Name, nl, kind, pin, outHigh, seed)
							quietOut := cl.PinVoltage(outHigh)

							ckt, err := cl.Bench(st)
							if err != nil {
								t.Fatal(err)
							}
							ckt.AddVDC("vforce", "out", "0", 0)
							prog := Compile(ckt)
							tw := newTwin(t, name+" load curve", prog, 0, seed)
							sweepLoadCurve(tw, prog, cl, quietOut, pin, 5)
							if kind == "NAND2" && !gminRun {
								gminRun = true
								tw.both(func(s *Session) { s.sourceRHS(s.rhs, 0) })
								ea, eb := tw.free.gminStepping(), tw.dense.gminStepping()
								if ea != nil || eb != nil {
									t.Fatalf("%s gmin stepping: %v / %v", name, ea, eb)
								}
								tw.sameX("gmin stepping", tw.free.x, tw.dense.x)
							}
							tw.done()

							ckt, err = cl.Bench(st)
							if err != nil {
								t.Fatal(err)
							}
							ckt.AddC("cload", "out", "0", 1e-15)
							prog = Compile(ckt)
							quietIn := cl.PinVoltage(st[pin])
							sign := 1.0
							if st[pin] {
								sign = -1
							}
							h := sign * heights[benches%len(heights)] * tc.VDD
							width := []float64{60e-12, 240e-12}[benches/2%2]
							load := loads[benches%len(loads)]
							glitch := wave.Triangle(quietIn, h, 100e-12, width)
							name = fmt.Sprintf("%s load=%gfF h=%.3g w=%gps", name, load*1e15, h, width*1e12)
							setup := func(s *Session) {
								s.SetSource(prog.MustSource("v_"+pin), glitch)
								s.SetLoad(prog.MustCap("cload"), load)
							}
							tw = newTwin(t, name+" fixed grid", prog, 2e-12, seed)
							tw.both(setup)
							tstop := 100e-12 + width + 400e-12
							var stop func(s *Session) func(x []float64) bool
							if !nl {
								// The certificate's cell benches: stop once the
								// output is proven within 5 % of VDD of its rail.
								out, _ := ckt.LookupNode("out")
								stop = func(s *Session) func(x []float64) bool {
									cert := s.Certify(out, quietOut)
									return func(x []float64) bool { return cert.Below(x, 0.05*tc.VDD) }
								}
							}
							if n := tw.transient(tstop, stop); n < mustGridSteps(tstop, 2e-12)+1 {
								stopped++
							}
							tw.done()

							tw = newTwin(t, name+" adaptive", prog, 1e-12, seed)
							tw.both(setup)
							tw.adaptive(100e-12 + width + 1.2e-9)
							tw.done()
						}
					}
				}
			}
		}
	}
	if stopped == 0 {
		t.Error("no fixed-grid transient was stopped by the certificate")
	}
	t.Logf("%d benches, %d fixed-grid runs stopped by the certificate", benches, stopped)
}

// mustGridSteps is the step count of a fixed grid, for tests that know it is
// valid.
func mustGridSteps(tstop, dt float64) int {
	n, err := GridSteps(tstop, dt, 1)
	if err != nil {
		panic(err)
	}
	return n
}

// interleaved reports whether some free node precedes a held node in the
// program's node order.
func interleaved(p *Program) bool {
	free := false
	for _, h := range p.held {
		if h.src < 0 {
			free = true
		} else if free {
			return true
		}
	}
	return false
}

// kernelShapes are programs of the free-node solve's shape, their node
// blocks to be overwritten: held-first like the farm's benches, free
// nodes before held ones like the NOR2 and AOI21 load-curve rigs, sources
// in both orientations, and no free node at all.
func kernelShapes() []*Program {
	heldFirst := circuit.New()
	heldFirst.AddVDC("v1", "h1", "0", 1)
	heldFirst.AddVDC("v2", "h2", "0", 1)
	heldFirst.AddVDC("v3", "h3", "0", 1)
	heldFirst.AddR("r1", "x", "y", 1)
	heldFirst.AddR("r2", "z", "0", 1)

	mixed := circuit.New()
	mixed.AddR("r1", "x", "0", 1)
	mixed.AddVDC("v1", "h1", "0", 1)
	mixed.AddR("r2", "y", "0", 1)
	mixed.AddV("v2", "0", "h2", wave.Constant(1))
	mixed.AddVDC("v3", "h3", "0", 1)

	reversed := circuit.New()
	reversed.AddV("v1", "0", "h1", wave.Constant(1))
	reversed.AddR("r1", "x", "0", 1)
	reversed.AddV("v2", "0", "h2", wave.Constant(1))

	allHeld := circuit.New()
	allHeld.AddVDC("v1", "h1", "0", 1)
	allHeld.AddV("v2", "0", "h2", wave.Constant(1))
	allHeld.AddVDC("v3", "h3", "0", 1)

	return []*Program{Compile(heldFirst), Compile(mixed), Compile(reversed), Compile(allHeld)}
}

// TestFreeSolveKernelMatchesDenseLU drives the free-node solve with random
// node blocks and residuals on every kernel shape and compares each update
// it returns with linalg.LUWorkspace's Factor and SolveInto by
// Float64bits. The blocks are drawn to break the premise in every way:
// held columns with entries of 1 and more, held rows that win a free
// column, ties for a free column's largest entry (which the dense LU
// breaks by row order), exact zeros, a singular column, and NaN and Inf
// entries. Every way out must be taken, and an update the solve does
// return must be the dense one.
func TestFreeSolveKernelMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var total solveTally
	ties := 0
	for _, prog := range kernelShapes() {
		s, err := NewSession(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, size := s.n, s.size
		lu := linalg.NewLUWorkspace(size)
		want := make([]float64, size)
		for trial := range 4000 {
			s.jac.CopyFrom(s.base)
			// A cell-like block: small held columns, dominant free
			// diagonals; then one way of breaking it.
			for r := range n {
				for c := range n {
					v := 0.0
					if rng.Intn(5) > 0 {
						v = (rng.Float64()*2 - 1) * 0.9
						if prog.held[c].src < 0 && r == c {
							v = 2 + rng.Float64()
						}
					}
					s.jac.Set(r, c, v)
				}
			}
			finite := true
			r, c := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(8) {
			case 0:
				s.jac.Set(r, c, []float64{1, -1, 1.5, -3}[rng.Intn(4)])
			case 1:
				s.jac.Set(r, c, 5*(rng.Float64()*2-1))
			case 2, 3:
				// A tie for column c's largest entry between two rows.
				r2 := rng.Intn(n)
				best := 0.0
				for i := range n {
					best = max(best, math.Abs(s.jac.At(i, c)))
				}
				s.jac.Set(r, c, best)
				s.jac.Set(r2, c, -best)
				ties++
			case 4:
				if trial%20 == 0 {
					for i := range n {
						s.jac.Set(i, c, 0)
					}
				}
			case 5:
				if trial%10 == 0 {
					s.jac.Set(r, c, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
					finite = false
				}
			}
			for i := range s.f {
				s.f[i] = rng.Float64()*2 - 1
				if rng.Intn(10) == 0 {
					s.f[i] = 0
				}
			}
			if trial%97 == 0 {
				s.f[rng.Intn(size)] = math.Inf(1)
				finite = false
			}
			jac := s.jac.Clone()
			f := append([]float64(nil), s.f...)

			before := s.tally
			ok := s.solveFree()
			if !ok && s.tally == before {
				t.Fatalf("%d unknowns, trial %d: a fallback counted no reason", size, trial)
			}
			for i := range jac.Data {
				if math.Float64bits(jac.Data[i]) != math.Float64bits(s.jac.Data[i]) {
					t.Fatalf("%d unknowns, trial %d: the solve changed the Jacobian", size, trial)
				}
			}
			if !ok {
				continue
			}
			if !finite {
				t.Fatalf("%d unknowns, trial %d: solved a system with a non-finite entry", size, trial)
			}
			if err := lu.Factor(jac); err != nil {
				t.Fatalf("%d unknowns, trial %d: the dense LU finds the block singular: %v", size, trial, err)
			}
			lu.SolveInto(want, f)
			for i := range want {
				if math.Float64bits(s.dx[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d unknowns, trial %d: update %d is %v, the dense LU's %v", size, trial, i, s.dx[i], want[i])
				}
			}
		}
		total.free += s.tally.free
		total.heldColumn += s.tally.heldColumn
		total.heldPivot += s.tally.heldPivot
		total.singular += s.tally.singular
		total.nonFinite += s.tally.nonFinite
	}
	t.Logf("solves %+v, %d ties drawn", total, ties)
	if total.free == 0 || total.heldColumn == 0 || total.heldPivot == 0 || total.singular == 0 || total.nonFinite == 0 {
		t.Errorf("not every way through the solve was taken: %+v", total)
	}
}

// TestFreeSolveFallsBackDense runs three programs outside the premise on
// both paths: a 0.5 Ω resistor from the supply to a free node puts 2 S in
// the supply's column; a negative conductance to ground leaves a free
// node's diagonal below the supply's row in its column, so a held node's
// KCL row wins it; and a floating source puts the program outside the
// shape. Every Newton solve must run on the dense LU, for the reason
// named, and match a forced-dense run bit for bit.
func TestFreeSolveFallsBackDense(t *testing.T) {
	tc := tech.Tech130()
	cl := cell.MustNew(tc, "INV", 1)
	st, err := cl.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		add    func(c *circuit.Circuit)
		reason func(tl solveTally) int64
	}{
		{"a held column entry of 2 S", func(c *circuit.Circuit) {
			c.AddR("rs", "vdd", "x", 0.5)
			c.AddR("rx", "x", "out", 1e4)
			c.AddC("cx", "x", "0", 1e-15)
		}, func(tl solveTally) int64 { return tl.heldColumn }},
		{"a held row winning a free column", func(c *circuit.Circuit) {
			c.AddR("rh", "vdd", "x", 1e3)
			c.AddVCCS("gneg", "0", "x", linearVCCS{g: -0.8e-3})
		}, func(tl solveTally) int64 { return tl.heldPivot }},
		{"a floating source", func(c *circuit.Circuit) {
			c.AddVDC("vf", "out", "y", 0.1)
			c.AddR("ry", "y", "0", 1e4)
		}, func(tl solveTally) int64 { return tl.shape }},
	}
	for _, tcase := range cases {
		ckt, err := cl.Bench(st)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cload", "out", "0", 20e-15)
		tcase.add(ckt)
		prog := Compile(ckt)
		glitch := wave.Triangle(0, 0.8*tc.VDD, 100e-12, 200e-12)
		for _, adaptive := range []bool{false, true} {
			tw := newTwin(t, tcase.name, prog, 1e-12, adaptive)
			tw.both(func(s *Session) { s.SetSource(prog.MustSource("v_A"), glitch) })
			tw.dc("operating point")
			if adaptive {
				tw.adaptive(600e-12)
			} else {
				tw.transient(600e-12, nil)
			}
			if a, b := tw.free.Stats(), tw.dense.Stats(); a != b {
				t.Fatalf("%s: counters %+v / %+v", tcase.name, a, b)
			}
			tl := tw.free.tally
			if tl.free != 0 || tcase.reason(tl) != tw.free.Stats().NewtonIters {
				t.Errorf("%s: solves %+v, want all %d dense for the named reason", tcase.name, tl, tw.free.Stats().NewtonIters)
			}
		}
	}
}

// TestFreeSolveEmulatesInterleavedOrder: the NOR2 and AOI21 load-curve
// rigs create the stack node dut.n1 before the forced output, so a free
// column comes before a held one. The solve emulates the dense LU there
// too: every Newton solve of a sweep takes it, and the sweep matches a
// forced-dense one bit for bit.
func TestFreeSolveEmulatesInterleavedOrder(t *testing.T) {
	tc := tech.Tech130()
	for _, kind := range []string{"NOR2", "AOI21"} {
		cl := cell.MustNew(tc, kind, 1)
		st, err := cl.SensitizedState("B", false)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := cl.Bench(st)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddVDC("vforce", "out", "0", 0)
		prog := Compile(ckt)
		if !interleaved(prog) {
			t.Fatalf("%s load-curve rig: node order is held-first", kind)
		}
		tw := newTwin(t, kind+" load curve", prog, 0, true)
		sweepLoadCurve(tw, prog, cl, 0, "B", 9)
		tw.done()
		if tl := tw.free.tally; tl.free != tw.free.Stats().NewtonIters {
			t.Errorf("%s: solves %+v, want all %d free", kind, tl, tw.free.Stats().NewtonIters)
		}
	}
}

// farmJobs are the seven cell configurations of the corner farm
// benchmark (charfarm-corners).
var farmJobs = []struct {
	kind  string
	drive int
	pin   string
}{
	{"INV", 1, "A"}, {"INV", 2, "A"}, {"INV", 4, "A"},
	{"NAND2", 1, "A"}, {"NAND2", 1, "B"}, {"NAND2", 2, "A"}, {"NAND2", 2, "B"},
}

// TestFreeSolveCoversFarmJobs runs the corner farm's seven jobs at tt as
// charlib characterises them — a seeded 31×31 load-curve sweep and a
// 4×3×2 adaptive propagation table — and requires every dense Newton
// solve to take the free-node solve: a silent fall back to the dense LU
// fails here, not just on the clock.
func TestFreeSolveCoversFarmJobs(t *testing.T) {
	tc := tech.Tech130()
	vdd := tc.VDD
	check := func(name string, s *Session) {
		t.Helper()
		if tl, iters := s.tally, s.Stats().NewtonIters; iters == 0 || tl.free != iters {
			t.Errorf("%s: %d Newton iterations, solves %+v", name, iters, tl)
		}
	}
	for _, j := range farmJobs {
		cl := cell.MustNew(tc, j.kind, j.drive)
		st, err := cl.SensitizedState(j.pin, true)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s", cl.Name(), j.pin)
		quietOut := cl.PinVoltage(cl.Logic(st))

		ckt, err := cl.Bench(st)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddVDC("vforce", "out", "0", 0)
		prog := Compile(ckt)
		s, err := NewSession(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Seed(true)
		hIn, hOut := prog.MustSource("v_"+j.pin), prog.MustSource("vforce")
		var dc DCResult
		for iv := range 31 {
			s.SetSourceDC(hIn, -0.2*vdd+float64(iv)*1.4*vdd/30)
			for io := range 31 {
				vout := -0.2*vdd + float64(io)*1.4*vdd/30
				s.SetSourceDC(hOut, vout)
				s.SetGuess("dut.n1", 0.5*(vout+quietOut))
				s.SetGuess("dut.n2", 0.5*(vout+quietOut))
				if err := s.RunDC(&dc); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(name+" load curve", s)

		ckt, err = cl.Bench(st)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cload", "out", "0", 1e-15)
		prog = Compile(ckt)
		if s, err = NewSession(prog, 1e-12); err != nil {
			t.Fatal(err)
		}
		s.Seed(true)
		quietIn := cl.PinVoltage(st[j.pin])
		sign := 1.0
		if st[j.pin] {
			sign = -1
		}
		var res Result
		for _, h := range []float64{0.2, 0.47, 0.73, 1.0} {
			for _, w := range []float64{60e-12, 240e-12, 900e-12} {
				for _, load := range []float64{10e-15, 120e-15} {
					s.SetSource(prog.MustSource("v_"+j.pin), wave.Triangle(quietIn, sign*h*vdd, 100e-12, w))
					s.SetLoad(prog.MustCap("cload"), load)
					if err := s.RunTransientAdaptive(context.Background(), &res, 100e-12+w+1.2e-9); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		check(name+" propagation table", s)
	}
}

// TestHeldNodeTableReverseSource: a source from ground to a node (`V 0 n
// −V`) holds the node just as its forward twin (`V n 0 V`) does. Both
// shape plans see a held node, the Newton seeds pin it, and the
// free-node solve takes it: every node voltage, sample and counter
// matches the twin's bit for bit, the source current is the twin's
// negated, and the certificate stops the two runs at the same sample.
func TestHeldNodeTableReverseSource(t *testing.T) {
	tc := tech.Tech130()
	cl := cell.MustNew(tc, "NAND2", 1)
	st, err := cl.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	build := func(reverse bool) *Program {
		ckt := circuit.New()
		add := func(name, node string, v float64) {
			if reverse {
				ckt.AddVDC(name, "0", node, -v)
			} else {
				ckt.AddVDC(name, node, "0", v)
			}
		}
		add("vdd", "vdd", tc.VDD)
		pins := map[string]string{}
		for _, in := range cl.Inputs() {
			pins[in] = "in_" + in
			add("v_"+in, pins[in], cl.PinVoltage(st[in]))
		}
		if err := cl.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cl", "out", "0", 30e-15)
		return Compile(ckt)
	}
	fwd, rev := build(false), build(true)
	if rev.cert.refuse != "" || rev.floating || rev.twice {
		t.Fatalf("reverse sources: certificate refuses %q, floating %v, a node held twice %v", rev.cert.refuse, rev.floating, rev.twice)
	}
	for i, h := range fwd.held {
		if r := rev.held[i]; r.src != h.src || r.sign != -h.sign {
			t.Errorf("node %d: held by %+v, forward twin %+v", i, r, h)
		}
	}
	if fmt.Sprint(fwd.lr.rows, fwd.lr.capRows, fwd.lr.use) != fmt.Sprint(rev.lr.rows, rev.lr.capRows, rev.lr.use) ||
		fmt.Sprint(fwd.cert.free) != fmt.Sprint(rev.cert.free) {
		t.Errorf("shape plans differ: low rank %v/%v, certificate %v/%v", fwd.lr.rows, rev.lr.rows, fwd.cert.free, rev.cert.free)
	}

	out, _ := fwd.ckt.LookupNode("out")
	run := func(p *Program) (*Session, []float64, *Result, []float64) {
		s, err := NewSession(p, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		s.Seed(true)
		guess := make([]float64, p.size)
		s.initialGuess(guess)
		var dc DCResult
		if err := s.RunDC(&dc); err != nil {
			t.Fatal(err)
		}
		sign := 1.0
		if p == rev {
			sign = -1
		}
		s.SetSource(p.MustSource("v_A"), wave.Triangle(sign*cl.PinVoltage(st["A"]), sign*0.7*tc.VDD, 100e-12, 200e-12))
		cert := s.Certify(out, tc.VDD)
		var res Result
		if err := s.RunTransient(context.Background(), &res, 1.5e-9, func(x []float64) bool {
			return cert.Below(x, 0.05*tc.VDD)
		}); err != nil {
			t.Fatal(err)
		}
		return s, guess, &res, dc.X
	}
	sf, gf, rf, xf := run(fwd)
	sr, gr, rr, xr := run(rev)
	for i := range fwd.n {
		if math.Float64bits(gf[i]) != math.Float64bits(gr[i]) || math.Float64bits(xf[i]) != math.Float64bits(xr[i]) {
			t.Errorf("node %d: seed %v / %v, operating point %v / %v", i, gf[i], gr[i], xf[i], xr[i])
		}
	}
	for k := fwd.n; k < fwd.size; k++ {
		if xf[k] != -xr[k] || (xf[k] != 0 && math.Float64bits(xf[k]) != math.Float64bits(-xr[k])) {
			t.Errorf("source %d: current %v, reverse twin %v", k-fwd.n, xf[k], xr[k])
		}
	}
	if rf.Steps() != rr.Steps() || sameSamples(rf, rr) >= 0 {
		t.Errorf("transients differ: %d / %d samples, first difference at %d", rf.Steps(), rr.Steps(), sameSamples(rf, rr))
	}
	if rf.Steps() >= mustGridSteps(1.5e-9, 1e-12)+1 {
		t.Errorf("the certificate did not stop the run (%q)", sf.cert.Refusal())
	}
	if sf.Stats() != sr.Stats() || sr.tally.free != sr.Stats().NewtonIters {
		t.Errorf("counters %+v / %+v, reverse solves %+v", sf.Stats(), sr.Stats(), sr.tally)
	}
}

// TestResultAtUnknownNodePanics: At on a name the circuit lacks panics
// like Waveform, where it used to read node 0; ground reads 0.
func TestResultAtUnknownNodePanics(t *testing.T) {
	c := circuit.New()
	c.AddVDC("v", "a", "0", 0.7)
	c.AddR("r", "a", "b", 1e3)
	c.AddC("c", "b", "0", 1e-15)
	res, err := freshTransient(context.Background(), c, 1e-12, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.At("0", 0); v != 0 {
		t.Errorf("At(ground) = %v, want 0", v)
	}
	if v := res.At("a", 0); v != 0.7 {
		t.Errorf("At(a) = %v, want 0.7", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("At on an unknown node did not panic")
		}
	}()
	res.At("nosuch", 0)
}

// TestCapBranchesGroupByNodePair: the adaptive run's error estimate runs
// once per capacitor branch — INV's propagation bench has 7 capacitors on
// 4 branches and NAND2's 14 on 9 — and a branch counts while any member
// stamps, so zeroing the load alone leaves the output's branch live, and
// zeroing every member does not.
func TestCapBranchesGroupByNodePair(t *testing.T) {
	for _, c := range []struct {
		kind           string
		caps, branches int
	}{{"INV", 7, 4}, {"NAND2", 14, 9}} {
		cl := cell.MustNew(tech.Tech130(), c.kind, 1)
		st, err := cl.SensitizedState("A", true)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := cl.Bench(st)
		if err != nil {
			t.Fatal(err)
		}
		ckt.AddC("cload", "out", "0", 1e-15)
		prog := Compile(ckt)
		if len(prog.caps) != c.caps || len(prog.capBranches) != c.branches {
			t.Errorf("%s: %d capacitors on %d branches, want %d on %d", c.kind, len(prog.caps), len(prog.capBranches), c.caps, c.branches)
		}
		s, err := NewSession(prog, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, prog.size)
		load := prog.MustCap("cload")
		out := prog.capBranchOf[load]
		s.SetLoad(load, 0)
		s.startSwing(x)
		members := 0
		for _, br := range prog.capBranchOf {
			if br == out {
				members++
			}
		}
		if members < 2 || !s.live[out] {
			t.Errorf("%s: the output branch (%d members) is not live without its load", c.kind, members)
		}
		for i, br := range prog.capBranchOf {
			if br == out {
				s.SetLoad(CapHandle(i), 0)
			}
		}
		s.startSwing(x)
		if s.live[out] {
			t.Errorf("%s: the output branch is live with every member zeroed", c.kind)
		}
	}
}

// TestFreeSolveMemoryBytesCountsBuffers: MemoryBytes counts the free-node
// solve's index vectors; its node block lives in the LU workspace.
func TestFreeSolveMemoryBytesCountsBuffers(t *testing.T) {
	prog := Compile(glitchRig(t, tech.Tech130(), "NAND2"))
	s, err := NewSession(prog, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	with := s.MemoryBytes()
	fs := s.fs
	s.fs = nil
	without := s.MemoryBytes()
	s.fs = fs
	if grown, want := with-without, int64(8*(prog.n+2*prog.size)); grown != want {
		t.Errorf("free-node buffers count %d bytes, want %d", grown, want)
	}
}

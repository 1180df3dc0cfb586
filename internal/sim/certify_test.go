package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// glitchBench is a cell bench as the driver-alone and NRC rigs build it:
// the cell with a triangular glitch on pin, from its rail in st, into a
// load on its output.
type glitchBench struct {
	name    string
	sess    *Session
	out     circuit.NodeID
	quiet   float64
	te      float64 // the glitch's last knot
	stackN1 bool    // a NAND2 whose stack node sits between the glitching device and out
}

func newGlitchBench(t *testing.T, tc *tech.Tech, kind, pin string, outHigh bool, load, height, width, dt float64, seed bool) *glitchBench {
	t.Helper()
	cl := cell.MustNew(tc, kind, 1)
	st, err := cl.SensitizedState(pin, outHigh)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := cl.Bench(st)
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddC("cl", "out", "0", load)
	prog := Compile(ckt)
	sess, err := NewSession(prog, dt)
	if err != nil {
		t.Fatal(err)
	}
	sess.Seed(seed)
	sign := 1.0
	if st[pin] {
		sign = -1
	}
	g := wave.Triangle(cl.PinVoltage(st[pin]), sign*height*tc.VDD, 100e-12, width)
	sess.SetSource(prog.MustSource("v_"+pin), g)
	out, _ := ckt.LookupNode("out")
	return &glitchBench{
		name:    fmt.Sprintf("%s %s %s/%s out=%v load=%gfF h=%g·VDD w=%gps dt=%gps seed=%v", tc.Name, cornerName(tc), kind, pin, outHigh, load*1e15, height, width*1e12, dt*1e12, seed),
		sess:    sess,
		out:     out,
		quiet:   cl.PinVoltage(outHigh),
		te:      g.End(),
		stackN1: kind == "NAND2" && pin == "B",
	}
}

// certifiedRun runs the bench to tstop with the certificate asked at
// every sample but never stopping the run, and returns the deviation
// |v(out) − quiet| of every sample and the certificate's bound at every
// sample it checked (+Inf where it refused or did not check), with its
// slack.
func (b *glitchBench) certifiedRun(t *testing.T, tstop float64) (dev, bound, slack []float64) {
	t.Helper()
	cert := b.sess.Certify(b.out, b.quiet)
	var res Result
	err := b.sess.RunTransient(context.Background(), &res, tstop, func(x []float64) bool {
		cert.bound = math.Inf(1)
		cert.Below(x, math.Inf(1))
		dev = append(dev, math.Abs(x[b.out]-b.quiet))
		bound = append(bound, cert.bound)
		slack = append(slack, cert.Slack())
		return false
	})
	if err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	return dev, bound, slack
}

// The certificate's bound covers the rest of the run: at every sample it
// checks, it is at least the deviation of that sample and of every later
// one. The benches are INV and NAND2 on both pins and both output rails,
// on both cards at the ss, tt and ff corners, into loads of 0–200 fF, with
// glitches of 0.2–1.2·VDD and 50 ps–1.6 ns, at 1 and 2 ps steps, with and
// without the predictor. A NAND2 pin-B glitch discharges the stack node,
// whose recharge from the output pulls the output further after the
// glitch has ended: the test requires such a case among the checked ones,
// its deviation at the last source knot below its later peak. Most
// benches must be checked and stop (bound below the peak) somewhere.
func TestCertificateCoversRest(t *testing.T) {
	type shape struct {
		kind, pin string
	}
	var checked, stoppable, runs, recharge int
	slackLo, slackHi := math.Inf(1), 0.0
	for _, base := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, corner := range []string{"ss", "tt", "ff"} {
			co, _ := tech.CornerByName(corner)
			tc := co.Apply(base)
			for i, sh := range []shape{{"INV", "A"}, {"NAND2", "A"}, {"NAND2", "B"}} {
				for j, outHigh := range []bool{true, false} {
					for _, load := range []float64{0, 30e-15, 200e-15} {
						// Glitches and steps rotate with the other
						// parameters so each is seen on every shape.
						k := i + 2*j + int(load*1e15)
						height := []float64{0.2, 0.6, 1.2}[k%3]
						width := []float64{50e-12, 400e-12, 1600e-12}[(k/3+i)%3]
						dt := []float64{1e-12, 2e-12}[(k+j)%2]
						seed := (k/2)%2 == 0
						b := newGlitchBench(t, tc, sh.kind, sh.pin, outHigh, load, height, width, dt, seed)
						dev, bound, slack := b.certifiedRun(t, b.te+1e-9)
						runs++
						peak, later := 0.0, make([]float64, len(dev)+1)
						for n := len(dev) - 1; n >= 0; n-- {
							later[n] = math.Max(later[n+1], dev[n])
						}
						firstCheck := -1
						for n := range dev {
							peak = math.Max(peak, dev[n])
							if math.IsInf(bound[n], 1) {
								continue
							}
							if firstCheck < 0 {
								firstCheck = n
							}
							if bound[n] < later[n] {
								t.Errorf("%s: bound %.6g V at sample %d, but a later sample deviates %.6g V", b.name, bound[n], n, later[n])
							}
							if bound[n] < peak {
								stoppable++
								slackLo, slackHi = math.Min(slackLo, slack[n]), math.Max(slackHi, slack[n])
								break
							}
						}
						if firstCheck >= 0 {
							checked++
							// The glitch's last knot is sample k0; the
							// stack node's recharge moves the output on.
							if k0 := int(math.Ceil(b.te / dt)); b.stackN1 && later[k0] > 1.5*dev[k0] {
								recharge++
							}
						}
					}
				}
			}
		}
	}
	// A bench whose sources never move, watched against its own operating
	// point: it is checked from the operating point on, where
	// ‖C·(x − x₀)‖₁ = 0, and its later samples move off x₀ by Newton's
	// tolerances alone — what the slack covers.
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			for _, seed := range []bool{false, true} {
				b := newGlitchBench(t, tc, kind, "A", true, 30e-15, 0, 100e-12, 2e-12, seed)
				prog := b.sess.prog
				b.sess.SetSource(prog.MustSource("v_A"), prog.srcW0[prog.MustSource("v_A")])
				var dc DCResult
				if err := b.sess.RunDC(&dc); err != nil {
					t.Fatal(err)
				}
				b.quiet, b.te = dc.X[b.out], 0
				dev, bound, _ := b.certifiedRun(t, 1e-9)
				runs++
				moved := false
				for n := range dev {
					moved = moved || dev[n] > 0
					if n+1 < len(dev) && bound[n] < dev[n+1] {
						t.Errorf("settled %s: bound %.3g V at sample %d, sample %d deviates %.3g V", b.name, bound[n], n, n+1, dev[n+1])
						break
					}
				}
				if moved {
					checked++
				}
			}
		}
	}
	t.Logf("%d benches: %d checked, %d stoppable (slack %.3g–%.3g V), %d with the stack node's recharge pulling the output after the glitch",
		runs, checked, stoppable, slackLo, slackHi, recharge)
	if checked < runs*3/4 || stoppable < runs/2 {
		t.Errorf("%d of %d benches checked and %d stoppable; the certificate refuses too often to be tested", checked, runs, stoppable)
	}
	if recharge == 0 {
		t.Error("no NAND2 pin-B bench whose output moves on after the glitch: the stack node's case is untested")
	}
}

// rcCell is a hand-built inverter bench for the refusal cases: a source
// "vin" on the gate, the inverter on "out" with a capacitor "cl" to ground.
func rcCell(t *testing.T) *circuit.Circuit {
	t.Helper()
	tc := tech.Tech130()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", tc.VDD)
	ckt.AddVDC("vin", "in", "0", 0)
	ckt.AddM("mp", "out", "in", "vdd", tc.PMOSDevice(2*tc.WUnit))
	ckt.AddM("mn", "out", "in", "0", tc.NMOSDevice(tc.WUnit))
	ckt.AddC("cl", "out", "0", 20e-15)
	return ckt
}

// The certificate refuses every run outside its preconditions, and the
// run then goes to its stop time: nonlinear gate capacitors, a gate on a
// free node, a floating source, a source that does not return to its
// t = 0 value, an adaptive run, a capacitor between two free nodes, a free
// node without capacitance (a zero load and no device capacitors), and a
// stack node too stiff for the step, whose forward half-step
// (h/2)·G/c > 1 would not be nonexpansive. Each names its precondition.
func TestCertificateRefusals(t *testing.T) {
	glitch := func(ckt *circuit.Circuit, prog *Program, s *Session, src string) {
		s.SetSource(prog.MustSource(src), wave.Triangle(0, 1.2, 100e-12, 200e-12))
	}
	cases := []struct {
		name, want string
		build      func() *circuit.Circuit
		src        string
		prep       func(prog *Program, s *Session)
		adaptive   bool
	}{
		{name: "nlcaps", want: "nonlinear gate capacitors", src: "v_A", build: func() *circuit.Circuit {
			cl := cell.MustNew(tech.Tech130().WithNonlinearCaps(), "INV", 1)
			st, _ := cl.SensitizedState("A", true)
			ckt, _ := cl.Bench(st)
			ckt.AddC("cl", "out", "0", 20e-15)
			return ckt
		}},
		{name: "free gate", want: "gate on a free node", src: "vin", build: func() *circuit.Circuit {
			ckt := rcCell(t)
			tc := tech.Tech130()
			ckt.AddM("mp2", "out2", "out", "vdd", tc.PMOSDevice(2*tc.WUnit))
			ckt.AddM("mn2", "out2", "out", "0", tc.NMOSDevice(tc.WUnit))
			ckt.AddC("cl2", "out2", "0", 20e-15)
			return ckt
		}},
		{name: "floating source", want: "floating voltage source", src: "vin", build: func() *circuit.Circuit {
			ckt := rcCell(t)
			ckt.AddVDC("vf", "out", "mid", 0.1)
			ckt.AddC("cm", "mid", "0", 5e-15)
			return ckt
		}},
		{name: "source does not return", want: "does not return", src: "vin", build: func() *circuit.Circuit { return rcCell(t) },
			prep: func(prog *Program, s *Session) {
				s.SetSource(prog.MustSource("vin"), wave.SaturatedRamp(0, 1.2, 100e-12, 100e-12))
			}},
		{name: "adaptive", want: "adaptive run", src: "vin", build: func() *circuit.Circuit { return rcCell(t) }, adaptive: true},
		{name: "cap between free nodes", want: "between two free nodes", src: "vin", build: func() *circuit.Circuit {
			ckt := rcCell(t)
			ckt.AddR("r1", "out", "far", 100)
			ckt.AddC("cf", "out", "far", 5e-15)
			ckt.AddC("cfar", "far", "0", 5e-15)
			return ckt
		}},
		{name: "zero load", want: "without capacitance", src: "vin", build: func() *circuit.Circuit { return rcCell(t) },
			prep: func(prog *Program, s *Session) { s.SetLoad(prog.MustCap("cl"), 0) }},
		{name: "stiff stack node", want: "forward step", src: "v_B", build: func() *circuit.Circuit {
			cl := cell.MustNew(tech.Tech130(), "NAND2", 1)
			st, _ := cl.SensitizedState("B", false)
			ckt, _ := cl.Bench(st)
			ckt.AddC("cl", "out", "0", 30e-15)
			return ckt
		}, prep: func(prog *Program, s *Session) {
			s.SetSource(prog.MustSource("v_B"), wave.Triangle(1.2, -0.6, 100e-12, 200e-12))
		}},
	}
	for _, tc := range cases {
		ckt := tc.build()
		prog := Compile(ckt)
		s, err := NewSession(prog, 2e-12)
		if err != nil {
			t.Fatal(err)
		}
		glitch(ckt, prog, s, tc.src)
		if tc.prep != nil {
			tc.prep(prog, s)
		}
		out, _ := ckt.LookupNode("out")
		cert := s.Certify(out, 0)
		var res Result
		fired := false
		stop := func(x []float64) bool {
			fired = fired || cert.Below(x, math.Inf(1))
			return false
		}
		if err := s.runTransient(context.Background(), &res, 1.5e-9, stop, tc.adaptive); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fired || !strings.Contains(cert.Refusal(), tc.want) {
			t.Errorf("%s: certificate fired %v, refusal %q; want it refused for %q", tc.name, fired, cert.Refusal(), tc.want)
		}
	}
}

// A certificate that misses a sample refuses the rest of the run: its
// bound needs every sample from the operating point on.
func TestCertificateNeedsEverySample(t *testing.T) {
	b := newGlitchBench(t, tech.Tech130(), "INV", "A", true, 30e-15, 0.6, 200e-12, 2e-12, false)
	cert := b.sess.Certify(b.out, b.quiet)
	var res Result
	n, fired := 0, false
	err := b.sess.RunTransient(context.Background(), &res, b.te+1e-9, func(x []float64) bool {
		if n++; n != 5 {
			fired = fired || cert.Below(x, math.Inf(1))
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired || cert.Refusal() != "a sample was not seen" {
		t.Errorf("fired %v, refusal %q after a missed sample", fired, cert.Refusal())
	}
}

func cornerName(tc *tech.Tech) string {
	if tc.Corner == nil {
		return "nominal"
	}
	return tc.Corner.Name
}

package sim_test

import (
	"fmt"

	"stanoise/internal/circuit"
	"stanoise/internal/sim"
)

// ExampleSession shows the compile-once/run-many sweep pattern: a resistor
// divider is compiled to a Program once, then one Session solves it at a
// series of source values with only the source parameter mutated between
// runs — no per-point netlist assembly, node resolution or matrix
// allocation.
func ExampleSession() {
	ckt := circuit.New()
	ckt.AddVDC("vin", "in", "0", 0) // swept below via its handle
	ckt.AddR("r1", "in", "out", 1000)
	ckt.AddR("r2", "out", "0", 1000)

	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, 0)
	if err != nil {
		panic(err)
	}
	hVin := prog.MustSource("vin")

	var dc sim.DCResult // reused: the sweep loop allocates nothing
	for _, vin := range []float64{0.4, 0.8, 1.2} {
		sess.SetSourceDC(hVin, vin)
		if err := sess.RunDC(&dc); err != nil {
			panic(err)
		}
		fmt.Printf("vin=%.1f  v(out)=%.3f\n", vin, dc.NodeV("out"))
	}
	// Output:
	// vin=0.4  v(out)=0.200
	// vin=0.8  v(out)=0.400
	// vin=1.2  v(out)=0.600
}

// ExampleSession_seed switches Newton seeding on for a sweep: each solve
// seeds from the previous grid point's converged solution (and each
// transient step from the polynomial predictor), and the session's
// statistics show how many solves were warm-started. On fine
// characterisation grids this cuts total Newton iterations roughly in
// half (see EXPERIMENTS.md).
func ExampleSession_seed() {
	ckt := circuit.New()
	ckt.AddVDC("vin", "in", "0", 0)
	ckt.AddR("r1", "in", "out", 1000)
	ckt.AddR("r2", "out", "0", 1000)

	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, 0)
	if err != nil {
		panic(err)
	}
	sess.Seed(true) // off by default: results may differ in the last bits
	hVin := prog.MustSource("vin")

	var dc sim.DCResult
	for i := 0; i < 10; i++ {
		sess.SetSourceDC(hVin, float64(i)*0.1)
		if err := sess.RunDC(&dc); err != nil {
			panic(err)
		}
	}
	st := sess.Stats()
	fmt.Printf("%d solves, %d warm-started, %d fallbacks\n",
		st.DC, st.WarmStarts, st.WarmFallbacks)
	// Output:
	// 10 solves, 9 warm-started, 0 fallbacks
}

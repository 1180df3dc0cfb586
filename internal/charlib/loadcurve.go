// Package charlib implements library-cell pre-characterisation for noise
// analysis: the non-linear DC load-curve tables I_DC = f(V_in, V_out) of
// the paper's eq. (1), holding resistances, and the input-to-output noise
// propagation tables used by the traditional linear-superposition flow.
//
// All characterisation runs against the same transistor-level simulator
// (internal/sim) used as the golden reference, mirroring the paper's setup
// where both the macromodel tables and the validation data came from ELDO.
package charlib

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
)

// LoadCurve is the characterised VCCS table of a cell output: the current
// the cell injects into its output net as a function of the voltage on the
// noisy input pin and the output voltage, with all other inputs frozen at
// the rails given by the characterisation state.
//
// The grid spans the "typical voltage swing" of the technology with margin
// (−0.2·VDD … 1.2·VDD on both axes by default), as prescribed in §2 of the
// paper.
type LoadCurve struct {
	CellName string
	State    string
	NoisyPin string

	VinMin, VinMax   float64
	VoutMin, VoutMax float64
	NVin, NVout      int
	// I holds the injected current, row-major: I[iv*NVout+io] at
	// vin = VinMin + iv·dvin, vout = VoutMin + io·dvout. Positive current
	// flows from the cell into the net (restoring when vout droops below
	// its quiet high level).
	I []float64
}

func (lc *LoadCurve) dvin() float64  { return (lc.VinMax - lc.VinMin) / float64(lc.NVin-1) }
func (lc *LoadCurve) dvout() float64 { return (lc.VoutMax - lc.VoutMin) / float64(lc.NVout-1) }

// Eval interpolates the table bilinearly at (vin, vout), returning the
// injected current and its partial derivatives. Queries outside the grid
// are clamped to the boundary, which corresponds to the physically settled
// currents beyond the characterised swing.
func (lc *LoadCurve) Eval(vin, vout float64) (i, dIdVin, dIdVout float64) {
	dx, dy := lc.dvin(), lc.dvout()
	fx := (vin - lc.VinMin) / dx
	fy := (vout - lc.VoutMin) / dy
	ix := int(math.Floor(fx))
	iy := int(math.Floor(fy))
	if ix < 0 {
		ix = 0
	}
	if ix > lc.NVin-2 {
		ix = lc.NVin - 2
	}
	if iy < 0 {
		iy = 0
	}
	if iy > lc.NVout-2 {
		iy = lc.NVout - 2
	}
	tx := fx - float64(ix)
	ty := fy - float64(iy)
	// Clamp the fractional position but keep derivatives from the edge
	// cell so Newton still sees a restoring slope outside the grid.
	if tx < 0 {
		tx = 0
	}
	if tx > 1 {
		tx = 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty > 1 {
		ty = 1
	}
	at := func(a, b int) float64 { return lc.I[a*lc.NVout+b] }
	i00 := at(ix, iy)
	i10 := at(ix+1, iy)
	i01 := at(ix, iy+1)
	i11 := at(ix+1, iy+1)
	i = i00*(1-tx)*(1-ty) + i10*tx*(1-ty) + i01*(1-tx)*ty + i11*tx*ty
	dIdVin = ((i10-i00)*(1-ty) + (i11-i01)*ty) / dx
	dIdVout = ((i01-i00)*(1-tx) + (i11-i10)*tx) / dy
	return i, dIdVin, dIdVout
}

// HoldingConductance returns −∂I/∂V_out at the quiet operating point: the
// small-signal conductance with which the driver fights injected noise.
// Its reciprocal is the classical "holding resistance" of linear SNA.
func (lc *LoadCurve) HoldingConductance(vinQuiet, voutQuiet float64) float64 {
	_, _, dIdVout := lc.Eval(vinQuiet, voutQuiet)
	return -dIdVout
}

// HoldingResistance is 1/HoldingConductance.
func (lc *LoadCurve) HoldingResistance(vinQuiet, voutQuiet float64) float64 {
	g := lc.HoldingConductance(vinQuiet, voutQuiet)
	if g <= 0 {
		return math.Inf(1)
	}
	return 1 / g
}

// LoadCurveOptions tunes the DC sweep.
type LoadCurveOptions struct {
	NVin, NVout int     // grid points per axis; default 61
	MarginFrac  float64 // sweep margin beyond the rails as a fraction of VDD; default 0.2
}

func (o LoadCurveOptions) normalize() LoadCurveOptions {
	if o.NVin <= 1 {
		o.NVin = 61
	}
	if o.NVout <= 1 {
		o.NVout = 61
	}
	if o.MarginFrac <= 0 {
		o.MarginFrac = 0.2
	}
	return o
}

// CharacterizeLoadCurve builds the VCCS table for a cell by DC analysis:
// the noisy pin and the output are swept over the characterisation range
// while the remaining inputs stay at the rails of st, and the current drawn
// through the output-forcing source is recorded — exactly the
// pre-characterisation step described in §2 of the paper. The sweep checks
// ctx between grid points, so a cancelled analysis abandons the table
// mid-characterisation.
//
// The cell netlist is compiled once (sim.Compile) and every grid point
// re-runs the same sim.Session with only the noisy-pin and output-forcing
// source values mutated, so the NVin×NVout sweep pays circuit assembly,
// node resolution and matrix allocation exactly once. Each grid point's
// Newton solve is warm-started from the previous point's solution
// (sim.Session.WarmStart); the table agrees with a cold sweep within
// solver tolerance (TestWarmStartLoadCurveMatchesCold).
func CharacterizeLoadCurve(ctx context.Context, cl *cell.Cell, st cell.State, noisyPin string, opts LoadCurveOptions) (*LoadCurve, error) {
	lc, _, err := characterizeLoadCurve(ctx, cl, st, noisyPin, opts, true)
	return lc, err
}

// characterizeLoadCurve is CharacterizeLoadCurve plus the sweep session's
// work counters (also folded into the process-wide per-corner registry),
// so SweepCorners can attribute the work per corner. seeded selects the
// sweep's warm start: every caller outside the tests passes true, and the
// tests pass false for the cold reference the seeded sweep is held to.
func characterizeLoadCurve(ctx context.Context, cl *cell.Cell, st cell.State, noisyPin string, opts LoadCurveOptions, seeded bool) (_ *LoadCurve, stats sim.Counters, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalize()
	vdd := cl.Tech.VDD
	margin := opts.MarginFrac * vdd
	lc := &LoadCurve{
		CellName: cl.Name(),
		State:    st.String(),
		NoisyPin: noisyPin,
		VinMin:   -margin, VinMax: vdd + margin,
		VoutMin: -margin, VoutMax: vdd + margin,
		NVin: opts.NVin, NVout: opts.NVout,
		I: make([]float64, opts.NVin*opts.NVout),
	}
	if !cl.HasInput(noisyPin) {
		return nil, stats, fmt.Errorf("charlib: %s has no pin %q", cl.Name(), noisyPin)
	}

	// Compile-once: the sweep topology is fixed, only source values change.
	ckt, err := cl.Bench(st)
	if err != nil {
		return nil, stats, err
	}
	ckt.AddVDC("vforce", "out", "0", 0)
	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, sim.Options{})
	if err != nil {
		return nil, stats, err
	}
	hNoisy := prog.MustSource("v_" + noisyPin)
	hForce := prog.MustSource("vforce")
	sess.WarmStart(seeded)
	// Attribute the sweep's solver work to the card's corner, even on
	// cancellation — partial sweeps burned real iterations.
	defer func() {
		stats = sess.Stats()
		sim.RecordCornerStats(cl.Tech.CornerTag(), stats)
	}()

	// The sweep loop itself is allocation-free (asserted by
	// TestLoadCurvePointAllocFree): source values mutate session-owned
	// constants, the solve runs into one reused DCResult, and the injected
	// current is read back through the compiled source handle.
	var dc sim.DCResult
	dvin, dvout := lc.dvin(), lc.dvout()
	quietOut := cl.PinVoltage(cl.Logic(st))
	for iv := 0; iv < lc.NVin; iv++ {
		vin := lc.VinMin + float64(iv)*dvin
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		sess.SetSourceDC(hNoisy, vin)
		for io := 0; io < lc.NVout; io++ {
			vout := lc.VoutMin + float64(io)*dvout
			sess.SetSourceDC(hForce, vout)
			// Seed stacked-transistor internal nodes between the forced
			// output and its quiet level (see internalGuess). The seeds
			// only shape cold starts — the first grid point, and the cold
			// fallback when a warm seed fails; otherwise the previous grid
			// point's solution takes over.
			g := internalGuess(vout, quietOut)
			sess.SetGuess("dut.n1", g)
			sess.SetGuess("dut.n2", g)
			if err := sess.RunDCInto(&dc); err != nil {
				return nil, stats, fmt.Errorf("charlib: DC at vin=%.3f vout=%.3f: %w", vin, vout, err)
			}
			// Branch current into the forcing source equals the current the
			// cell injects into the net.
			lc.I[iv*lc.NVout+io] = dc.SourceCurrent(hForce)
		}
	}
	return lc, stats, nil
}

// internalGuess seeds stacked-transistor internal nodes between the forced
// output and its quiet level, which keeps Newton in the intended basin.
func internalGuess(vout, quiet float64) float64 {
	return 0.5 * (vout + quiet)
}

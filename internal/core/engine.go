package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/charlib"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/thevenin"
	"stanoise/internal/wave"
)

// PortSource is a (possibly non-linear) one-port driver attached to a port
// of the reduced interconnect macromodel. Current returns the current it
// injects into the port at time t when the port sits at absolute voltage v,
// together with ∂i/∂v for the Newton iteration.
type PortSource interface {
	Current(t, v float64) (i, didv float64)
}

// OpenPort is an unterminated observation port (receiver nodes, whose pin
// capacitance is already inside the reduced network).
type OpenPort struct{}

// Current implements PortSource with zero current.
func (OpenPort) Current(t, v float64) (float64, float64) { return 0, 0 }

// TheveninPort drives a port through a fitted aggressor model:
// i = (V_TH(t) − v)/R_TH.
type TheveninPort struct {
	W   *wave.Waveform
	RTh float64
}

// NewTheveninPort builds the port source from a fitted driver.
func NewTheveninPort(d *thevenin.Driver) *TheveninPort {
	return &TheveninPort{W: d.Waveform(), RTh: d.RTh}
}

// Current implements PortSource.
func (p *TheveninPort) Current(t, v float64) (float64, float64) {
	return (p.W.At(t) - v) / p.RTh, -1 / p.RTh
}

// VCCSPort is the paper's victim-driver model: the non-linear DC table
// I_DC = f(V_in(t), V_out) of eq. (1), with the known input-noise waveform
// driving the first argument.
type VCCSPort struct {
	LC  *charlib.LoadCurve
	Vin *wave.Waveform
}

// Current implements PortSource.
func (p *VCCSPort) Current(t, v float64) (float64, float64) {
	i, _, didv := p.LC.Eval(p.Vin.At(t), v)
	return i, didv
}

// HoldingPort is the traditional linear victim model: a holding
// conductance anchored at the quiet level. It ignores the input glitch —
// propagated noise is added separately by table lookup in the
// superposition flow.
type HoldingPort struct {
	G  float64
	V0 float64
}

// Current implements PortSource.
func (p *HoldingPort) Current(t, v float64) (float64, float64) {
	return -p.G * (v - p.V0), -p.G
}

// PulsePort is the Zolotov-style victim model (paper ref [4]): a pulsed
// voltage source behind the holding resistance. The pulse waveform is the
// driver's response to the input glitch alone; iteration refines it.
type PulsePort struct {
	W *wave.Waveform
	R float64
}

// Current implements PortSource.
func (p *PulsePort) Current(t, v float64) (float64, float64) {
	return (p.W.At(t) - v) / p.R, -1 / p.R
}

// DynamicPort is an optional extension of PortSource for elements with
// internal state (capacitive companions). Init is called once before the
// run with the step size and quiet port voltage; Commit is called exactly
// once per accepted timestep with the solved port voltage.
type DynamicPort interface {
	PortSource
	Init(h, t0, v0 float64)
	Commit(t, v float64)
}

// CapPort is a capacitor between a known voltage waveform and the port —
// the Miller feedthrough element of the extended macromodel. It uses a
// trapezoidal companion model, consistent with the engine's integrator.
type CapPort struct {
	C float64
	W *wave.Waveform

	h     float64
	dPrev float64 // previous branch voltage w−v
	iPrev float64 // previous branch current
}

// Init implements DynamicPort.
func (p *CapPort) Init(h, t0, v0 float64) {
	p.h = h
	p.dPrev = p.W.At(t0) - v0
	p.iPrev = 0
}

// Current implements PortSource: the trapezoidal companion current of the
// capacitor, injected into the port.
func (p *CapPort) Current(t, v float64) (float64, float64) {
	g := 2 * p.C / p.h
	d := p.W.At(t) - v
	return g*(d-p.dPrev) - p.iPrev, -g
}

// Commit implements DynamicPort.
func (p *CapPort) Commit(t, v float64) {
	i, _ := p.Current(t, v)
	p.dPrev = p.W.At(t) - v
	p.iPrev = i
}

// ParallelPort combines several sources at one port.
type ParallelPort []PortSource

// Current implements PortSource by summation.
func (pp ParallelPort) Current(t, v float64) (float64, float64) {
	var i, g float64
	for _, s := range pp {
		si, sg := s.Current(t, v)
		i += si
		g += sg
	}
	return i, g
}

// Init implements DynamicPort by forwarding.
func (pp ParallelPort) Init(h, t0, v0 float64) {
	for _, s := range pp {
		if d, ok := s.(DynamicPort); ok {
			d.Init(h, t0, v0)
		}
	}
}

// Commit implements DynamicPort by forwarding.
func (pp ParallelPort) Commit(t, v float64) {
	for _, s := range pp {
		if d, ok := s.(DynamicPort); ok {
			d.Commit(t, v)
		}
	}
}

// EngineOptions tunes the dedicated macromodel engine.
type EngineOptions struct {
	Dt        float64 // timestep (s); default 1 ps
	TStop     float64 // end time (s); required
	MaxNewton int     // default 60
	Tol       float64 // Newton update tolerance (V); default 1e-9
}

// normalize fills defaults and rejects non-finite values with a
// *sim.OptionsError: a NaN or infinite Dt or TStop would size the result
// from a NaN step count or never leave the step loop, and a NaN Tol would
// pass every `<= 0` default check and disable the convergence test.
func (o EngineOptions) normalize() (EngineOptions, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Dt", o.Dt}, {"TStop", o.TStop}, {"Tol", o.Tol}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return o, &sim.OptionsError{Field: f.name, Value: f.v}
		}
	}
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	if o.TStop <= 0 {
		return o, errors.New("core: engine requires TStop")
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o, nil
}

// EngineResult holds the port voltage waveforms of a macromodel run.
type EngineResult struct {
	Times []float64
	PortV [][]float64 // [port][step], absolute volts
	Ports []string
}

// Waveform returns the waveform at port index k.
func (r *EngineResult) Waveform(k int) *wave.Waveform {
	return wave.FromPoints(r.Times, r.PortV[k])
}

// RunEngine solves the noise-cluster macromodel: the reduced interconnect
// co-simulated with one PortSource per port, by trapezoidal integration
// with Newton–Raphson at each step. The system is formulated in deviation
// variables u = v − V0 so the quiet operating point is the exact zero
// state:
//
//	Cr·ẋ + Gr·x = B·i(t, V0 + Bᵀx)
//
// This is the "dedicated engine embedded into the noise analysis tool" of
// the paper's §2, and the source of its ~20X speed-up. Open, Thevenin,
// pulsed and holding ports draw a current affine in the port voltage, so
// their constant slopes fold into the trapezoidal system matrix
// A1′ = 2Cr/h + Gr − B_L·diag(g_L)·B_Lᵀ, which is factored once per run.
// Each step's Newton iteration then runs on the voltages of the remaining
// p_N ports alone, and an all-linear run takes no Newton iteration at all.
// In every evaluation method p_N is 0 or 1, the victim's VCCS, and its
// Newton is a scalar one. The iterates are those of a Newton on the full
// Q×Q step system (DESIGN.md §15). A step costs one Q×Q matrix-vector
// product plus a p_N×p_N solve per iteration, with Q ≈ 15, and the step
// loop allocates nothing.
// The context is checked periodically between timesteps so a cancelled
// analysis stops mid-transient; a nil context disables cancellation.
func RunEngine(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	p := len(red.Ports)
	if len(sources) != p || len(v0) != p {
		return nil, fmt.Errorf("core: engine needs %d sources and v0 entries, got %d/%d",
			p, len(sources), len(v0))
	}
	h := opts.Dt
	// Indexed time grid t = k·h for k = 0..n, the one
	// sim.Session.RunTransientInto runs; the result records the time axis
	// and p port voltages.
	n, err := sim.GridSteps(opts.TStop, h, p+1)
	if err != nil {
		return nil, err
	}
	sim.Record(sim.Counters{EngineRuns: 1})
	q := red.Q

	// Order the ports non-linear first: perm[:pn] stay in Newton and
	// perm[pn:] are linear. Every port vector below is in this order. The
	// non-linear ports keep their relative order, and no linear port is a
	// DynamicPort, so the DynamicPorts see Init and Commit in port order.
	perm := make([]int, 0, p)
	for j, s := range sources {
		if !linearPort(s) {
			perm = append(perm, j)
		}
	}
	pn := len(perm)
	for j, s := range sources {
		if linearPort(s) {
			perm = append(perm, j)
		}
	}

	res := &EngineResult{
		Times: make([]float64, n+1),
		PortV: make([][]float64, p),
		Ports: append([]string(nil), red.Ports...),
	}
	// Initial port currents at the quiet point. A linear port's ∂i/∂v is
	// its slope g_j for the whole run.
	iPrev := make([]float64, p)
	slope := make([]float64, p)
	dyn := make([]DynamicPort, p)
	for jj, j := range perm {
		s := sources[j]
		if d, ok := s.(DynamicPort); ok {
			dyn[jj] = d
			d.Init(h, 0, v0[j])
		}
		iPrev[jj], slope[jj] = s.Current(0, v0[j])
		res.PortV[j] = make([]float64, n+1)
		res.PortV[j][0] = v0[j]
	}

	// Per-run constants, one port per row of the port matrices in perm
	// order. The step matrix A1′ = 2Cr/h + Gr − B_L·diag(g_L)·B_Lᵀ carries
	// the linear ports' slopes and A2 = 2Cr/h − Gr is the history matrix:
	// prop = A1′⁻¹A2 carries the state across a step, zt = (A1′⁻¹B)ᵀ maps
	// port currents into the state, and m = B_NᵀZ_N is the non-linear
	// ports' impedance of one step.
	bt := linalg.NewMatrix(p, q)
	for jj, j := range perm {
		for a := 0; a < q; a++ {
			bt.Set(jj, a, red.B.At(a, j))
		}
	}
	a1 := red.Cr.Clone()
	a1.Scale(2 / h)
	a1.AddScaled(1, red.Gr)
	for jj := pn; jj < p; jj++ {
		b := row(bt, jj)
		for a, ba := range b {
			linalg.AxpyVec(-slope[jj]*ba, b, row(a1, a))
		}
	}
	a2 := red.Cr.Clone()
	a2.Scale(2 / h)
	a2.AddScaled(-1, red.Gr)
	lu, err := linalg.Factor(a1)
	if err != nil {
		return nil, fmt.Errorf("core: singular macromodel system matrix: %w", err)
	}
	prop := lu.SolveMatrix(a2)
	zt := lu.SolveMatrix(bt.Transpose()).Transpose()
	m := linalg.NewMatrix(pn, pn)
	for a := 0; a < pn; a++ {
		for b := 0; b < pn; b++ {
			m.Set(a, b, linalg.Dot(row(bt, a), row(zt, b)))
		}
	}

	x := make([]float64, q)  // reduced state
	xn := make([]float64, q) // the Newton's next iterate of x
	w := make([]float64, q)  // free response: the state with no non-linear port current
	y := make([]float64, p)  // port voltages Bᵀx
	i0 := make([]float64, p) // linear port currents at the quiet voltage
	r := make([]float64, pn) // free non-linear port response B_Nᵀw
	icur := make([]float64, pn)
	didv := make([]float64, pn)
	c := make([]float64, pn)  // linearised port currents of the iterate
	g := make([]float64, pn)  // port residual
	dy := make([]float64, pn) // Newton update of y
	jac := linalg.NewMatrix(pn, pn)
	plu := linalg.NewLUWorkspace(pn)

	for k := 1; k <= n; k++ {
		t := float64(k) * h
		if k&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// w = P·x_prev + Z·(i_prev + i0) solves A1′·w = A2·x_prev + B·i_prev + B_L·i0.
		// A linear port draws i0_j(t) + g_j·y_j, and its intercept i0_j(t),
		// the current at the quiet voltage, is known before the solve. Open
		// ports draw nothing and add nothing.
		prop.MulVecInto(w, x)
		for jj, j := range perm {
			ij := iPrev[jj]
			if jj >= pn {
				i0[jj], _ = sources[j].Current(t, v0[j])
				ij += i0[jj]
			}
			if ij != 0 {
				linalg.AxpyVec(ij, row(zt, jj), w)
			}
		}
		// Newton on y_N = r + M·i_N(t, V0+y_N) with r = B_Nᵀw, from
		// y_N = B_Nᵀx_prev. Its iterates are the Q×Q Newton's, x = w + Z_N·c
		// with c = i + D·(y_new − y), so the stopping rule is the Q×Q one:
		// max |Δx| < Tol. A NaN |Δx| is kept in maxd, so a non-finite update
		// never counts as converged.
		converged := pn == 0
		switch pn {
		case 0:
			// Every port is linear: w is the step's solution.
			x, w = w, x
		case 1:
			// The victim's VCCS alone: the general loop below with its 1×1
			// LU written out op for op — one pivot test and one division —
			// and the state update fused with the |Δx| test.
			j, mv, z := perm[0], m.Data[0], row(zt, 0)
			r0 := linalg.Dot(row(bt, 0), w)
			for it := 0; it < opts.MaxNewton; it++ {
				i, didv := sources[j].Current(t, v0[j]+y[0])
				jc := -mv * didv
				jc++
				if math.Abs(jc) < 1e-300 {
					return nil, singularJacobian(t, linalg.ErrSingular)
				}
				dy := (y[0] - r0 - (0 + mv*i)) / jc
				y[0] -= dy
				ci := i - didv*dy
				maxd := 0.0
				for a, wa := range w {
					xa := wa + ci*z[a]
					if d := math.Abs(xa - x[a]); d > maxd || math.IsNaN(d) {
						maxd = d
					}
					xn[a] = xa
				}
				x, xn = xn, x
				if maxd < opts.Tol {
					converged = true
					break
				}
			}
		default:
			for a := range r {
				r[a] = linalg.Dot(row(bt, a), w)
			}
			for it := 0; it < opts.MaxNewton; it++ {
				for jj, j := range perm[:pn] {
					icur[jj], didv[jj] = sources[j].Current(t, v0[j]+y[jj])
				}
				// Residual y − r − M·i and Jacobian I − M·diag(∂i/∂v).
				for a := 0; a < pn; a++ {
					mr, jr := row(m, a), row(jac, a)
					for b, mv := range mr {
						jr[b] = -mv * didv[b]
					}
					jr[a]++
					g[a] = y[a] - r[a] - linalg.Dot(mr, icur)
				}
				if err := plu.Factor(jac); err != nil {
					return nil, singularJacobian(t, err)
				}
				plu.SolveInto(dy, g)
				copy(xn, w)
				for jj := range dy {
					y[jj] -= dy[jj]
					c[jj] = icur[jj] - didv[jj]*dy[jj]
					linalg.AxpyVec(c[jj], row(zt, jj), xn)
				}
				maxd := 0.0
				for a, xa := range xn {
					if d := math.Abs(xa - x[a]); d > maxd || math.IsNaN(d) {
						maxd = d
					}
				}
				x, xn = xn, x
				if maxd < opts.Tol {
					converged = true
					break
				}
			}
		}
		if !converged {
			return nil, fmt.Errorf("core: macromodel Newton did not converge at t=%.3gps: %w", t*1e12, sim.ErrNoConvergence)
		}
		// Accept: store port currents for the trapezoidal history, then let
		// stateful sources advance their companions. The linear ports read
		// their voltages from Bᵀx.
		res.Times[k] = t
		for jj, j := range perm {
			if jj < pn {
				v := v0[j] + y[jj]
				iPrev[jj], _ = sources[j].Current(t, v)
				if dyn[jj] != nil {
					dyn[jj].Commit(t, v)
				}
			} else {
				y[jj] = linalg.Dot(row(bt, jj), x)
				iPrev[jj] = i0[jj] + slope[jj]*y[jj]
			}
			res.PortV[j][k] = v0[j] + y[jj]
		}
	}
	return res, nil
}

// singularJacobian is the error of a step whose Newton Jacobian has no
// usable pivot.
func singularJacobian(t float64, err error) error {
	return fmt.Errorf("core: singular macromodel Jacobian at t=%.3gps: %w", t*1e12, err)
}

// linearPort reports whether s draws a current affine in the port voltage
// with a constant slope, so that RunEngine folds it into the step matrix.
// The list is closed: any other source, a caller-defined one included, may
// be non-linear or stateful and stays in Newton.
func linearPort(s PortSource) bool {
	switch s.(type) {
	case OpenPort, *TheveninPort, *PulsePort, *HoldingPort:
		return true
	}
	return false
}

// row returns row a of m as a slice of its backing array.
func row(m *linalg.Matrix, a int) []float64 {
	return m.Data[a*m.Cols : (a+1)*m.Cols]
}

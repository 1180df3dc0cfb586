package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

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

// TheveninPort drives a port through a voltage waveform behind a series
// resistance: i = (V_TH(t) − v)/R_TH. It is the fitted aggressor model
// (NewTheveninPort), an aggressor held at its quiet rail, and the
// Zolotov-style victim model of paper ref [4] — a pulsed source behind the
// holding resistance, whose pulse is the driver's response to the input
// glitch alone and which iteration refines.
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
// driving the first argument. MillerC, when non-zero, is the driver's
// input-output feedthrough capacitor from Vin to the port, the Miller
// extension of the macromodel: RunEngine integrates it as the trapezoidal
// capacitor it is (DESIGN.md §28), and Current leaves it out.
type VCCSPort struct {
	LC      *charlib.LoadCurve
	Vin     *wave.Waveform
	MillerC float64
}

// Current implements PortSource: the DC table's current, without the
// Miller capacitor's.
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

// The macromodel engine's Newton settings: each step's Newton stops once
// max |Δx| < engineTol, and fails after engineMaxNewton iterations.
const (
	engineMaxNewton = 60
	engineTol       = 1e-9 // Newton update tolerance (V)
)

// EngineOptions tunes the dedicated macromodel engine.
type EngineOptions struct {
	Dt    float64 // timestep (s); default 1 ps
	TStop float64 // end time (s); required

	// maxNewton caps each step's Newton iterations; 0 means
	// engineMaxNewton. Test hook for runs that must finish without a
	// second iteration.
	maxNewton int
}

// normalize fills defaults and rejects non-finite values with a
// *sim.OptionsError: a NaN or infinite Dt or TStop would size the result
// from a NaN step count or never leave the step loop.
func (o EngineOptions) normalize() (EngineOptions, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Dt", o.Dt}, {"TStop", o.TStop}} {
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
	if o.maxNewton <= 0 {
		o.maxNewton = engineMaxNewton
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
// Q×Q step system (DESIGN.md §15). A VCCS port's Miller capacitor folds
// into the step and history matrices, and its feed-through from Vin into
// each step's known current (DESIGN.md §28), so every port law is
// stateless. A step costs one Q×Q matrix-vector product plus a p_N×p_N
// solve per iteration, with Q ≈ 15, and the step loop allocates nothing.
// The context is checked periodically between timesteps so a cancelled
// analysis stops mid-transient; a nil context disables cancellation.
func RunEngine(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	return runEngine(ctx, red, sources, v0, opts, nil)
}

// enginePeak is RunEngine for a caller that reads only the peak deviation
// of one port from quiet, and its time, as wave.MeasureNoise reads them off
// the port's waveform. It records no waveform, and it stops at the first
// settled step where the certificate of DESIGN.md §26 proves that no later
// sample can exceed the running peak, so it returns the full run's peak
// and peak time bit for bit. A run outside the certificate's
// preconditions goes to TStop. s, which may be nil, is the state the runs
// of one alignment search share (peakSearch): the certificate's geometry,
// the last run's plan and, while the search probes, the traces a run
// resumes from and records into (DESIGN.md §29).
func enginePeak(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions, port int, quiet float64, s *peakSearch) (peak, tPeak float64, err error) {
	pw := &peakWatch{port: port, quiet: quiet, search: s}
	if _, err := runEngine(ctx, red, sources, v0, opts, pw); err != nil {
		return 0, 0, err
	}
	peak, tPeak = pw.result()
	return peak, tPeak, nil
}

// runEngine is the one step loop behind RunEngine and enginePeak: with a
// nil pw it records every port's waveform; with pw it records none,
// follows pw's port and may stop early (pw.result holds the answer), and
// a probe of a search may start past step 1 (DESIGN.md §29).
func runEngine(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions, pw *peakWatch) (*EngineResult, error) {
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
	// sim.Session.RunTransient runs; the result records the time axis
	// and p port voltages.
	n, err := sim.GridSteps(opts.TStop, h, p+1)
	if err != nil {
		return nil, err
	}
	steps := 0 // accepted steps after the resume point, counted once the run ends
	defer func() { sim.Record(sim.Counters{EngineRuns: 1, EngineSteps: int64(steps)}) }()
	q := red.Q

	// Order the ports non-linear first: perm[:pn] stay in Newton and
	// perm[pn:] are linear. Every port vector below is in this order, and
	// the non-linear ports keep their relative order.
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

	var res *EngineResult
	if pw == nil {
		res = &EngineResult{
			Times: make([]float64, n+1),
			PortV: make([][]float64, p),
			Ports: append([]string(nil), red.Ports...),
		}
	}
	// Initial port currents at the quiet point. A linear port's ∂i/∂v is
	// its slope g_j for the whole run.
	iPrev := make([]float64, p)
	slope := make([]float64, p)
	for jj, j := range perm {
		iPrev[jj], slope[jj] = sources[j].Current(0, v0[j])
		if res != nil {
			res.PortV[j] = make([]float64, n+1)
			res.PortV[j][0] = v0[j]
		}
	}

	// Per-run constants, one port per row of the port matrices in perm
	// order (enginePlan.build). A peak-only run takes them from its search,
	// which keeps the last run's plan while the key matches.
	var (
		local enginePlan
		plan  = &local
		s     *peakSearch
	)
	if pw != nil {
		if s = pw.search; s == nil {
			s = new(peakSearch)
		}
		plan, err = s.planFor(red, h, sources, v0, perm, pn, slope)
	} else {
		err = local.build(red, h, sources, perm, pn, slope)
	}
	if err != nil {
		return nil, err
	}
	bt, prop, zt, m := &plan.bt, &plan.prop, &plan.zt, &plan.m
	// A peak-only run follows its port at perm index wj and, when the
	// certificate applies, checks it every tailCheckEvery settled steps.
	var (
		wj   int
		tail *tailBound
	)
	if pw != nil {
		wj = slices.Index(perm, pw.port)
		pw.observe(0, v0[pw.port])
		geo := s.geo
		if geo == nil || geo.red != red || geo.h != h {
			geo = newTailGeometry(red, h)
		}
		tail = newTailBound(geo, plan, sources, v0, wj, pw.quiet, n)
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

	// A probe of a search records its steps into the spare trace and
	// starts after the last step k0 it shares with the best one's
	// (DESIGN.md §29).
	k0 := 0
	var rec *engineTrace
	if s != nil && s.spare != nil {
		rec = s.spare
		k0 = rec.resume(s.plan, s.best, sources, pw, opts.maxNewton, n, x, iPrev, y)
	}
	for k := k0 + 1; k <= n; k++ {
		t := float64(k) * h
		if k&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// w = P·x_prev + Z·(i_prev + i0) solves A1′·w = A2·x_prev + B·i_prev + B_L·i0.
		// A linear port draws i0_j(t) + g_j·y_j, and its intercept i0_j(t),
		// the current at the quiet voltage, is known before the solve. Open
		// ports draw nothing and add nothing. A Miller capacitor adds its
		// known feed-through (2C/h)·(Vin(t) − Vin(t−h)), 0 after Vin's last
		// knot.
		prop.MulVecInto(w, x)
		for jj, j := range perm {
			ij := iPrev[jj]
			if jj >= pn {
				i0[jj], _ = sources[j].Current(t, v0[j])
				ij += i0[jj]
			} else if vp, ok := sources[j].(*VCCSPort); ok && vp.MillerC != 0 {
				ij += 2 * vp.MillerC / h * (vp.Vin.At(t) - vp.Vin.At(float64(k-1)*h))
			}
			if ij != 0 {
				linalg.AxpyVec(ij, row(zt, jj), w)
			}
		}
		// Newton on y_N = r + M·i_N(t, V0+y_N) with r = B_Nᵀw, from
		// y_N = B_Nᵀx_prev. Its iterates are the Q×Q Newton's, x = w + Z_N·c
		// with c = i + D·(y_new − y), so the stopping rule is the Q×Q one:
		// max |Δx| < engineTol. A NaN |Δx| is kept in maxd, so a non-finite
		// update never counts as converged.
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
			for it := 0; it < opts.maxNewton; it++ {
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
				if maxd < engineTol {
					converged = true
					break
				}
			}
		default:
			for a := range r {
				r[a] = linalg.Dot(row(bt, a), w)
			}
			for it := 0; it < opts.maxNewton; it++ {
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
				if maxd < engineTol {
					converged = true
					break
				}
			}
		}
		if !converged {
			return nil, fmt.Errorf("core: macromodel Newton did not converge at t=%.3gps: %w", t*1e12, sim.ErrNoConvergence)
		}
		// Accept: store port currents for the trapezoidal history. The
		// linear ports read their voltages from Bᵀx.
		for jj, j := range perm {
			if jj < pn {
				iPrev[jj], _ = sources[j].Current(t, v0[j]+y[jj])
			} else {
				y[jj] = linalg.Dot(row(bt, jj), x)
				iPrev[jj] = i0[jj] + slope[jj]*y[jj]
			}
			if res != nil {
				res.PortV[j][k] = v0[j] + y[jj]
			}
		}
		steps = k - k0
		if res != nil {
			res.Times[k] = t
			continue
		}
		// A sample that raised the peak is inside the bound, so it is
		// never the step to stop at.
		rose := pw.observe(t, v0[pw.port]+y[wj])
		if rec != nil && t <= rec.until {
			rec.add(x, iPrev, y, pw)
		}
		switch {
		case tail == nil || t < tail.te:
		case pw.inspect != nil:
			pw.inspect(k, tail.bound(x, iPrev, n-k, pw.peak))
		case k%tailCheckEvery == 0 && !rose && pw.live() && tail.bound(x, iPrev, n-k, pw.peak) < pw.peak:
			return nil, nil
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
// be non-linear and stays in Newton.
func linearPort(s PortSource) bool {
	switch s.(type) {
	case OpenPort, *TheveninPort, *HoldingPort:
		return true
	}
	return false
}

// row returns row a of m as a slice of its backing array.
func row(m *linalg.Matrix, a int) []float64 {
	return m.Data[a*m.Cols : (a+1)*m.Cols]
}

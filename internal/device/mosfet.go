// Package device implements the transistor model shared by every engine in
// the repository: the golden transistor-level simulator, the DC
// pre-characterisation that produces the paper's load-curve tables (eq. 1),
// and the Thevenin fitting of aggressor drivers.
//
// The model is a source–drain-symmetric Level-1 (Shichman–Hodges) MOSFET
// with channel-length modulation. The paper's argument rests on first-order
// MOS non-linearity — the drain current saturating in Vds and switching
// on/off in Vgs — which Level-1 captures; see DESIGN.md §2 for why this is
// an adequate stand-in for the foundry BSIM models used with ELDO.
package device

import "math"

// Kind selects the transistor polarity.
type Kind int

// The two transistor polarities of the Level-1 model.
const (
	NMOS Kind = iota
	PMOS
)

// String returns "NMOS" or "PMOS".
func (k Kind) String() string {
	if k == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Params holds the Level-1 model card together with the instance geometry.
// Voltages follow SPICE sign conventions: VT0 is positive for NMOS and
// negative for PMOS.
type Params struct {
	Kind   Kind
	W, L   float64 // channel width and length (m)
	KP     float64 // transconductance parameter µCox (A/V²)
	VT0    float64 // zero-bias threshold voltage (V)
	Lambda float64 // channel-length modulation (1/V)

	// CGD and CGS are the optional voltage-dependent gate-charge caps of
	// the NLMOS extension (tanh-shaped C(u), see CapParams). Zero values
	// mean "no nonlinear gate model": the cell builder then falls back to
	// the classic constant half-gate capacitors, so legacy netlists,
	// cache keys and result bytes are untouched.
	CGD, CGS CapParams
}

// Beta returns the device gain factor KP·W/L.
func (p *Params) Beta() float64 { return p.KP * p.W / p.L }

// NonlinearCaps reports whether the instance carries a voltage-dependent
// gate-charge model on either gate capacitor.
func (p *Params) NonlinearCaps() bool { return !p.CGD.IsZero() || !p.CGS.IsZero() }

// CapParams is the tanh-shaped voltage-dependent capacitor of the NLMOS
// gate-charge model:
//
//	C(u)  = Cp + Co·(1 + tanh(P0 + P1·u))
//	C'(u) = Co·P1 / cosh²(P0 + P1·u)
//
// u is the branch voltage across the capacitor (gate minus drain for C_GD,
// gate minus source for C_GS). Cp is the constant pedestal, Co the
// modulation depth (the capacitance swings between Cp and Cp+2·Co), and
// P0/P1 place and scale the transition along the voltage axis. Co = 0
// degenerates to a constant capacitor of value Cp and is compiled as one —
// the zero-modulation reduction that keeps constant-cap programs on the
// precomputed stamp path bit-for-bit.
type CapParams struct {
	Cp float64 // constant pedestal capacitance (F)
	Co float64 // modulation depth (F); 0 means constant
	P0 float64 // transition offset (dimensionless)
	P1 float64 // transition slope (1/V)
}

// IsZero reports whether the cap model is entirely absent (all fields zero),
// as opposed to a constant capacitor (Co = 0 but Cp > 0).
func (cp CapParams) IsZero() bool { return cp == CapParams{} }

// Eval returns the capacitance C(u) and its analytic derivative dC/du at
// branch voltage u.
func (cp CapParams) Eval(u float64) (c, dc float64) {
	if cp.Co == 0 {
		return cp.Cp, 0
	}
	arg := cp.P0 + cp.P1*u
	c = cp.Cp + cp.Co*(1+math.Tanh(arg))
	ch := math.Cosh(arg)
	dc = cp.Co * cp.P1 / (ch * ch)
	return c, dc
}

// Charge returns the stored charge Q(u) = ∫₀ᵘ C(v) dv, the analytic
// integral of Eval's capacitance. Used by the charge-conservation test
// battery to check ∮i dt against ΔQ on a charge/discharge transient.
func (cp CapParams) Charge(u float64) float64 {
	if cp.Co == 0 {
		return cp.Cp * u
	}
	// ∫ tanh(P0+P1·v) dv = ln(cosh(P0+P1·v))/P1.
	lc := func(v float64) float64 {
		arg := cp.P0 + cp.P1*v
		// ln(cosh x) overflows for |x| ≳ 710; use the asymptote |x| − ln 2.
		if math.Abs(arg) > 30 {
			return math.Abs(arg) - math.Ln2
		}
		return math.Log(math.Cosh(arg))
	}
	return cp.Cp*u + cp.Co*(u+(lc(u)-lc(0))/cp.P1)
}

// Eval computes the drain current and its partial derivatives for the given
// terminal node voltages. The returned id is the current flowing into the
// drain terminal; gd, gg, gs are ∂id/∂vd, ∂id/∂vg and ∂id/∂vs.
//
// The model is evaluated symmetrically: when vd < vs (NMOS) the source and
// drain roles are exchanged so the equations always see vds ≥ 0, which is
// essential for pass-gate-like conditions during noise events.
func (p *Params) Eval(vd, vg, vs float64) (id, gd, gg, gs float64) {
	if p.Kind == PMOS {
		// A PMOS is an NMOS in a mirrored voltage frame:
		// id_p(vd,vg,vs) = -id_n(-vd,-vg,-vs). The chain rule through the
		// two sign flips leaves the conductances unchanged.
		n := Params{Kind: NMOS, W: p.W, L: p.L, KP: p.KP, VT0: -p.VT0, Lambda: p.Lambda}
		in, gdn, ggn, gsn := n.Eval(-vd, -vg, -vs)
		return -in, gdn, ggn, gsn
	}
	if vd >= vs {
		ids, gm, gds := level1(p, vg-vs, vd-vs)
		// id = ids(vgs, vds); vgs = vg-vs, vds = vd-vs.
		return ids, gds, gm, -(gm + gds)
	}
	// Reverse mode: the physical source is the d terminal. The forward
	// current flows into the s node, so the drain-terminal current is its
	// negative.
	ids, gm, gds := level1(p, vg-vd, vs-vd)
	// id = -ids(vg-vd, vs-vd)
	gd = gm + gds
	gg = -gm
	gs = -gds
	return -ids, gd, gg, gs
}

// level1 evaluates the NMOS Level-1 equations for vds ≥ 0, returning the
// drain-source current with its derivatives gm = ∂i/∂vgs and gds = ∂i/∂vds.
func level1(p *Params, vgs, vds float64) (ids, gm, gds float64) {
	vov := vgs - p.VT0
	if vov <= 0 {
		// Cut-off. The engine's gmin keeps the Jacobian non-singular.
		return 0, 0, 0
	}
	beta := p.Beta()
	clm := 1 + p.Lambda*vds
	if vds < vov {
		// Triode region.
		ids = beta * (vov*vds - 0.5*vds*vds) * clm
		gm = beta * vds * clm
		gds = beta*(vov-vds)*clm + beta*(vov*vds-0.5*vds*vds)*p.Lambda
		return ids, gm, gds
	}
	// Saturation region.
	ids = 0.5 * beta * vov * vov * clm
	gm = beta * vov * clm
	gds = 0.5 * beta * vov * vov * p.Lambda
	return ids, gm, gds
}

// ConductanceBounds bounds Eval's conductances over every terminal voltage
// in the box vd ∈ [vd[0], vd[1]], vg ∈ [vg[0], vg[1]], vs ∈ [vs[0], vs[1]]:
// gmax bounds |∂id/∂vd|, |∂id/∂vg| and |∂id/∂vs|, and spread bounds how far
// ∂id/∂vd, and ∂id/∂vs, can differ between two points of the box. The stop
// certificate of the simulator's cell benches reads its ball conditions off
// them (DESIGN.md §31).
//
// With vov = vg − min(vd, vs) − VT0 and vds = |vd − vs|, the drain and
// source conductances are, by the channel's direction, P = gm + gds or
// Q = gds of level1 (forward gd = Q, −gs = P; reverse gd = P, −gs = Q), and
// |gg| = gm ≤ P. In both regions
//
//	P = β·vov·(1 + λ·vds) + β·λ·(vov·vds − vds²/2) ≤ β·vov·(1 + λ·vds) + β·λ·vov²/2
//
// (saturation is the equality at vds ≥ vov), which rises with vov ≥ 0 and
// vds ≥ 0 when λ ≥ 0, so gmax takes both at their largest over the box.
// Q rises with vov, and while 2·λ·vov ≤ 1 it falls with vds
// (∂Q/∂vds = −β·(1 + λ·vds) + 2·β·λ·(vov − vds) in triode, 0 in
// saturation), so Q is least at the least vov and the largest vds; beyond
// that Q ≥ 0 is the bound. Both conductances lie in [Q_min, gmax], and
// spread is their difference. A PMOS is bounded in its mirrored frame, as
// Eval evaluates it. Both carry a relative margin of 1e-12 over their own
// rounding and Eval's, and both are +Inf when a bound is not finite or
// λ < 0.
func (p *Params) ConductanceBounds(vd, vg, vs [2]float64) (gmax, spread float64) {
	n := *p
	if p.Kind == PMOS {
		n = Params{Kind: NMOS, W: p.W, L: p.L, KP: p.KP, VT0: -p.VT0, Lambda: p.Lambda}
		vd, vg, vs = [2]float64{-vd[1], -vd[0]}, [2]float64{-vg[1], -vg[0]}, [2]float64{-vs[1], -vs[0]}
	}
	inf := math.Inf(1)
	if !(n.Lambda >= 0) {
		return inf, inf
	}
	vovHi := vg[1] - math.Min(vd[0], vs[0]) - n.VT0
	vovLo := vg[0] - math.Min(vd[1], vs[1]) - n.VT0
	vdsHi := math.Max(math.Max(vd[1]-vs[0], vs[1]-vd[0]), 0)
	if math.IsNaN(vovHi) || math.IsNaN(vovLo) || math.IsNaN(vdsHi) {
		return inf, inf
	}
	if vovHi <= 0 {
		return 0, 0
	}
	beta := n.Beta()
	gmax = (beta*vovHi*(1+n.Lambda*vdsHi) + 0.5*beta*n.Lambda*vovHi*vovHi) * (1 + 1e-12)
	qMin := 0.0
	if 2*n.Lambda*vovHi <= 1 {
		_, _, qMin = level1(&n, vovLo+n.VT0, vdsHi)
	}
	return gmax, gmax - qMin*(1-1e-12)
}

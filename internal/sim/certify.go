package sim

import (
	"fmt"
	"math"

	"stanoise/internal/circuit"
)

// certPlan is the program-shape half of the stop certificate of DESIGN.md
// §31, read once at Compile. A program outside the certificate's shape
// carries the reason in refuse, and every run of it goes to its stop time.
type certPlan struct {
	refuse string
	// free maps a node to its position among the free nodes — those no
	// ground-referenced voltage source holds — or -1 for a held node.
	free  []int
	nfree int
	// capFree is each linear capacitor's one free terminal, or -1.
	capFree []int
	// gLin is each free node's linear conductance: gmin and the
	// resistors on it.
	gLin []float64
}

// planCertificate reads the certificate's program shape: every MOSFET gate
// on a held node, λ ≥ 0 and β ≥ 0 on every device, no nonlinear gate
// capacitor, VCCS, current source or floating voltage source, and every
// linear capacitor with at most one free terminal.
func (p *Program) planCertificate() certPlan {
	cp := certPlan{free: make([]int, p.n)}
	switch {
	case len(p.nlcaps) > 0:
		cp.refuse = "nonlinear gate capacitors"
	case len(p.vccs) > 0:
		cp.refuse = "a VCCS"
	case len(p.isrc) > 0:
		cp.refuse = "a current source"
	case p.floating:
		cp.refuse = "a floating voltage source"
	}
	isHeld := func(i int) bool { return i < 0 || p.held[i].src >= 0 }
	for i := range cp.free {
		cp.free[i] = -1
		if !isHeld(i) {
			cp.free[i] = cp.nfree
			cp.nfree++
		}
	}
	for _, m := range p.mos {
		if !isHeld(m.g) {
			cp.refuse = "a MOSFET gate on a free node"
		}
		if !(m.p.Lambda >= 0) || !(m.p.Beta() >= 0) {
			cp.refuse = "a MOSFET with λ < 0 or β < 0"
		}
	}
	cp.capFree = make([]int, len(p.caps))
	for i, c := range p.caps {
		switch {
		case !isHeld(c.a) && !isHeld(c.b):
			cp.refuse = "a capacitor between two free nodes"
		case !isHeld(c.a):
			cp.capFree[i] = c.a
		case !isHeld(c.b):
			cp.capFree[i] = c.b
		default:
			cp.capFree[i] = -1
		}
	}
	cp.gLin = make([]float64, cp.nfree)
	for i := range cp.gLin {
		cp.gLin[i] = gmin
	}
	for _, r := range p.res {
		for _, n := range [2]int{r.a, r.b} {
			if n >= 0 && cp.free[n] >= 0 {
				cp.gLin[cp.free[n]] += math.Abs(r.g)
			}
		}
	}
	return cp
}

// Certificate is the stop certificate of DESIGN.md §31 for the fixed-grid
// transient runs of a cell bench: a network of MOSFETs whose gates sources
// hold, linear capacitors and resistors. After the last knot of every
// source the bench is autonomous, and with the gates held each device is a
// two-terminal conductance with ∂id/∂vd ≥ 0 ≥ ∂id/∂vs. In the charge
// coordinates z = C·x over the free nodes the trapezoidal step is then
// ℓ1-nonexpansive around the run's operating point x₀ wherever
// (h/2)·G_j/c_j ≤ 1, so from a sample K on every sample obeys
//
//	|v(out) − quiet| ≤ |x₀(out) − quiet| + (‖C·(x_K − x₀)‖₁ + slack)/c(out),
//
// the slack covering the Newton tolerances, x₀'s own residual and
// round-off over the steps left. Below reports when that bound is under a
// caller's level. A run outside the certificate's preconditions is never
// stopped by it.
type Certificate struct {
	s     *Session
	out   int
	quiet float64

	live    bool
	k       int     // the last sample seen
	te      float64 // the last knot of every source
	x0      []float64
	c       []float64 // capacitance at each free node (F)
	cMin    float64
	vHeld   float64 // largest |v| of a held node
	qScale  float64 // Σ_j c_j·(|x₀_j| + vHeld), the charge the step's round-off scales with
	sigma0  float64 // per-step slack that does not depend on the ball (C)
	r1, r2  float64 // charge distance of the two samples before the last
	lo, hi  []float64
	g, dg   []float64
	slack   float64
	bound   float64 // the last check's bound, +Inf when it refused
	refusal string
}

// Certify arms the session's stop certificate to watch node out against
// the level quiet and returns it. It is the stop predicate's half of a
// fixed-grid RunTransient: the predicate calls Below on every sample of
// the run, in order, from the operating point on. The certificate reads
// the run's sources, loads and step at the operating point, so it may be
// armed before or after they are set, and it re-arms at the operating
// point of every run. A session has one certificate; Certify returns it
// re-pointed at out and quiet.
func (s *Session) Certify(out circuit.NodeID, quiet float64) *Certificate {
	c := s.cert
	if c == nil {
		p := &s.prog.cert
		c = &Certificate{
			s:  s,
			x0: make([]float64, s.size),
			c:  make([]float64, p.nfree),
			lo: make([]float64, s.n),
			hi: make([]float64, s.n),
			g:  make([]float64, p.nfree),
			dg: make([]float64, p.nfree),
		}
		s.cert = c
	}
	c.out, c.quiet, c.live = int(out), quiet, false
	return c
}

// Below reports whether the certificate proves |v(out) − quiet| < level
// for the sample x and every later sample of the run: x must be the run's
// sample, and Below must see every sample in order (a run whose samples
// it misses is never stopped). It checks from the first sample at or after
// the last source knot. Below on a nil certificate is false.
func (c *Certificate) Below(x []float64, level float64) bool {
	if c == nil {
		return false
	}
	s := c.s
	if s.runK == 0 {
		c.start(x)
	} else if s.runK != c.k+1 {
		c.refuse("a sample was not seen")
	}
	c.k = s.runK
	if !c.live {
		return false
	}
	r := c.charge(x)
	ok := float64(c.k)*s.dt >= c.te && c.check(r, level)
	c.r1, c.r2 = r, c.r1
	return ok
}

// Slack is the slack of the certificate's last check, in volts at the
// watched node.
func (c *Certificate) Slack() float64 { return c.slack }

// Refusal names the precondition that refused the run or its last check,
// or is "" when none did.
func (c *Certificate) Refusal() string { return c.refusal }

func (c *Certificate) refuse(why string) {
	c.live = false
	c.refusal = why
}

// start reads the run at its operating point x: the run shape (a
// fixed-grid run whose every source ends at its t = 0 value, bit for bit,
// so x is the settled state), each free node's capacitance, and x's own
// residual.
func (c *Certificate) start(x []float64) {
	s, p := c.s, &c.s.prog.cert
	c.live, c.refusal, c.r1, c.r2, c.slack = true, "", 0, 0, 0
	switch {
	case p.refuse != "":
		c.refuse(p.refuse)
		return
	case s.runAdaptive:
		c.refuse("an adaptive run")
		return
	case c.out < 0 || c.out >= s.n || p.free[c.out] < 0:
		c.refuse("the watched node is held")
		return
	}
	c.te, c.vHeld = 0, 0
	for k, w := range s.srcW {
		last := len(w.V) - 1
		if math.Float64bits(w.At(0)) != math.Float64bits(w.V[last]) {
			c.refuse(fmt.Sprintf("source %s does not return to its t = 0 value", s.prog.ckt.VSources[k].Name))
			return
		}
		c.te = math.Max(c.te, w.T[len(w.T)-1])
		c.vHeld = math.Max(c.vHeld, math.Abs(w.V[last]))
	}
	clear(c.c)
	for i, n := range p.capFree {
		if n >= 0 {
			c.c[p.free[n]] += s.capC[i]
		}
	}
	c.cMin = math.Inf(1)
	for _, cj := range c.c {
		if !(cj > 0) || math.IsInf(cj, 0) {
			c.refuse("a free node without capacitance")
			return
		}
		c.cMin = math.Min(c.cMin, cj)
	}
	copy(c.x0, x)
	c.qScale = 0
	for n, j := range p.free {
		if j >= 0 {
			c.qScale += c.c[j] * (math.Abs(x[n]) + c.vHeld)
		}
	}

	// x₀'s residual: the free nodes' currents at the operating point, with
	// a bound on this sum's own rounding (summed into the conductance
	// buffers, free until the first check). A seeded DC solve accepts on a
	// small update without verifying it.
	const u = 0x1p-53
	h := s.dt
	f, mag := c.g, c.dg
	clear(f)
	clear(mag)
	for _, r := range s.prog.res {
		i := r.g * (vIdx(x, r.a) - vIdx(x, r.b))
		c.inject(f, mag, r.a, i)
		c.inject(f, mag, r.b, -i)
	}
	for j := range s.n {
		if fj := p.free[j]; fj >= 0 {
			f[fj] += gmin * x[j]
			mag[fj] += math.Abs(gmin * x[j])
		}
	}
	for i := range s.prog.mos {
		m := &s.prog.mos[i]
		id, _, _, _ := m.p.Eval(vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s))
		c.inject(f, mag, m.d, id)
		c.inject(f, mag, m.s, -id)
	}
	rho0 := 0.0
	for j := range f {
		rho0 += math.Abs(f[j]) + 16*u*mag[j]
	}
	if math.IsNaN(rho0) || math.IsInf(rho0, 0) {
		c.refuse("a non-finite operating point")
		return
	}
	// The slack every step adds whatever the ball: each accepted iterate's
	// residual (iTol per node, and the last update's vTol through the
	// companion 2c/h), and x₀'s residual.
	c.sigma0 = h * rho0
	for _, cj := range c.c {
		c.sigma0 += h*iTol*math.Max(1, float64(s.n)) + 2*cj*vTol
	}
}

// inject adds the current i leaving node n to the free-node sums f and
// mag (its magnitude).
func (c *Certificate) inject(f, mag []float64, n int, i float64) {
	if n < 0 {
		return
	}
	if j := c.s.prog.cert.free[n]; j >= 0 {
		f[j] += i
		mag[j] += math.Abs(i)
	}
}

// charge returns ‖C·(x − x₀)‖₁ over the free nodes.
func (c *Certificate) charge(x []float64) float64 {
	p := &c.s.prog.cert
	r := 0.0
	for j, fj := range p.free {
		if fj >= 0 {
			r += c.c[fj] * math.Abs(x[j]-c.x0[j])
		}
	}
	return r
}

// check evaluates the certificate at a settled sample at charge distance
// r from x₀ against level.
func (c *Certificate) check(r, level float64) bool {
	const u = 0x1p-53
	c.bound = math.Inf(1)
	s, p := c.s, &c.s.prog.cert
	h := s.dt
	steps := float64(s.runSteps - c.k)
	r *= 1 + float64(2*p.nfree+4)*u

	// The ball: every later sample stays within charge distance
	// R = r + steps·σ of x₀, and rb bounds R (checked below).
	rb := r + 2*steps*c.sigma0
	// Newton's iterates: the seed is the previous sample, or with the
	// predictor 3·x₁ − 3·x₂ + x₃ of the last three; a contracting Newton
	// never leaves the seed's distance e0 from the step's solution.
	es := rb
	if s.seed {
		es = 3*rb + 3*math.Max(rb, c.r1) + math.Max(rb, c.r2)
	}
	e0 := es + rb
	rn := e0 + rb

	// On the Newton ball: G_j for the residual slack and ΔG_j, the largest
	// change of column j of the Jacobian, for the contraction.
	c.conductances(rn)
	sigma := c.sigma0
	for j, cj := range c.c {
		// Each step's residual reaches vTol through the device rows too
		// (row sums ≤ 2·G_j); round-off in the step's arithmetic and on
		// the held nodes.
		sigma += 2 * h * (p.gLin[j] + c.g[j]) * vTol
		if !(0.5*h*c.dg[j]/cj <= 0.5) {
			c.refusal = "Newton contraction (h/2)·ΔG/c > 1/2"
			return false
		}
		if !(1.5*e0/cj <= maxStep) {
			c.refusal = "a damped Newton update"
			return false
		}
	}
	sigma += 64*u*(c.qScale+float64(p.nfree)*rn) + c.heldRoundoff()
	if a := 1 + 2*h*c.gMax(); !(math.Ceil(math.Log2(e0*math.Max(1.5/(c.cMin*vTol), 2/h*a/(iTol*math.Max(1, float64(s.n))))))+1 <= maxNewton) {
		c.refusal = "Newton iterations"
		return false
	}
	R := r + steps*sigma
	if !(R <= rb) {
		c.refusal = "slack outside its ball"
		return false
	}
	// On the ball: the forward half-step is nonexpansive.
	c.conductances(rb)
	for j, cj := range c.c {
		if !(0.5*h*(p.gLin[j]+c.g[j])/cj <= 1) {
			c.refusal = "forward step (h/2)·G/c > 1"
			return false
		}
	}
	cOut := c.c[p.free[c.out]]
	c.slack = steps * sigma / cOut
	c.refusal = ""
	c.bound = (math.Abs(c.x0[c.out]-c.quiet) + R/cOut) * (1 + 1e-14)
	return c.bound < level
}

// gMax is max_j G_j/c_j of the last conductances call.
func (c *Certificate) gMax() float64 {
	m := 0.0
	for j, cj := range c.c {
		m = math.Max(m, (c.s.prog.cert.gLin[j]+c.g[j])/cj)
	}
	return m
}

// heldDev bounds the round-off of a held node's solved voltage.
func heldDev(v float64) float64 { return 64 * 0x1p-53 * math.Max(1, math.Abs(v)) }

// heldRoundoff bounds the charge a step moves onto the free nodes through
// the held nodes' round-off: through each capacitor to a held node and
// each device's held terminals.
func (c *Certificate) heldRoundoff() float64 {
	s, p := c.s, &c.s.prog.cert
	q := 0.0
	for i, n := range p.capFree {
		if n >= 0 {
			q += 2 * s.capC[i] * heldDev(c.vHeld)
		}
	}
	for j := range c.g {
		q += 2 * s.dt * c.g[j] * heldDev(c.vHeld)
	}
	return q
}

// conductances bounds, over the box of charge radius rad around x₀
// (|Δv_j| ≤ rad/c_j on the free nodes, round-off on the held ones), each
// free node's device conductance G_j = Σ G_dev and the change ΔG_j column
// j of the Jacobian can see between two points of the box,
// Σ (1 + [the device's other terminal is free])·spread_dev, into c.g and
// c.dg (device.Params.ConductanceBounds).
func (c *Certificate) conductances(rad float64) {
	s, p := c.s, &c.s.prog.cert
	for n := range s.n {
		if j := p.free[n]; j >= 0 {
			d := rad / c.c[j]
			c.lo[n], c.hi[n] = c.x0[n]-d, c.x0[n]+d
		} else {
			d := heldDev(c.x0[n])
			c.lo[n], c.hi[n] = c.x0[n]-d, c.x0[n]+d
		}
	}
	box := func(n int) [2]float64 {
		if n < 0 {
			return [2]float64{}
		}
		return [2]float64{c.lo[n], c.hi[n]}
	}
	clear(c.g)
	clear(c.dg)
	for i := range s.prog.mos {
		m := &s.prog.mos[i]
		if m.d == m.s {
			continue
		}
		g, dg := m.p.ConductanceBounds(box(m.d), box(m.g), box(m.s))
		fd, fs := -1, -1
		if m.d >= 0 {
			fd = p.free[m.d]
		}
		if m.s >= 0 {
			fs = p.free[m.s]
		}
		for _, e := range [2][2]int{{fd, fs}, {fs, fd}} {
			if e[0] < 0 {
				continue
			}
			c.g[e[0]] += g
			c.dg[e[0]] += dg
			if e[1] >= 0 {
				c.dg[e[0]] += dg
			}
		}
	}
}

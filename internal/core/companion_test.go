package core

import (
	"math"
	"testing"

	"stanoise/internal/wave"
)

// The companion form of the Miller capacitor: a stateful CapPort beside the
// VCCS in a ParallelPort, each step's capacitor current carried from the
// last through Init and Commit. RunEngine folds the capacitor into its
// matrices instead (VCCSPort.MillerC, DESIGN.md §28); referenceEngine runs
// every Miller port in this form, an independent integration of the same
// capacitor, so the differential tests hold the fold against it.

// DynamicPort is a PortSource with internal state (a capacitive
// companion). Init is called once before the run with the step size and
// quiet port voltage; Commit is called exactly once per accepted timestep
// with the solved port voltage. Only referenceEngine calls them.
type DynamicPort interface {
	PortSource
	Init(h, t0, v0 float64)
	Commit(t, v float64)
}

// CapPort is a capacitor between a known voltage waveform and the port,
// integrated by a trapezoidal companion model.
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

// ParallelPort combines several sources at one port. RunEngine does not
// know the type, so it keeps a ParallelPort in Newton.
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

// companionForm returns sources with every VCCS port that carries a
// Miller capacitor rewritten as ParallelPort{the VCCS without it,
// CapPort{MillerC, Vin}}, each CapPort fresh.
func companionForm(sources []PortSource) []PortSource {
	out := append([]PortSource(nil), sources...)
	for k, s := range out {
		if v, ok := s.(*VCCSPort); ok && v.MillerC != 0 {
			out[k] = ParallelPort{&VCCSPort{LC: v.LC, Vin: v.Vin}, &CapPort{C: v.MillerC, W: v.Vin}}
		}
	}
	return out
}

func TestParallelPortSums(t *testing.T) {
	p := ParallelPort{
		&HoldingPort{G: 1e-3, V0: 1.0},
		&HoldingPort{G: 2e-3, V0: 1.0},
	}
	i, g := p.Current(0, 0.9)
	if math.Abs(i-0.3e-3) > 1e-12 || math.Abs(g+3e-3) > 1e-12 {
		t.Errorf("parallel sum wrong: %v %v", i, g)
	}
}

func TestCapPortDifferentiates(t *testing.T) {
	// A CapPort between a ramping waveform and a fixed port voltage must
	// deliver i ≈ C·dV/dt mid-ramp.
	const (
		c    = 10e-15
		rate = 1.2 / 100e-12 // V/s
		h    = 1e-12
	)
	p := &CapPort{C: c, W: wave.SaturatedRamp(0, 1.2, 50e-12, 100e-12)}
	p.Init(h, 0, 0)
	want := c * rate
	// Trapezoidal companions ring at PWL corners; the integrator consumes
	// the average of consecutive step currents, which must equal C·dV/dt
	// exactly during the ramp.
	var prev, cur float64
	for t0 := h; t0 <= 100e-12; t0 += h {
		prev = cur
		cur, _ = p.Current(t0, 0)
		p.Commit(t0, 0)
	}
	if avg := 0.5 * (prev + cur); math.Abs(avg-want) > 0.02*want {
		t.Errorf("mid-ramp average cap current = %v, want %v", avg, want)
	}
	// And zero once the ramp completes and the history settles.
	for t0 := 101e-12; t0 <= 400e-12; t0 += h {
		prev = cur
		cur, _ = p.Current(t0, 0)
		p.Commit(t0, 0)
	}
	if avg := 0.5 * (prev + cur); math.Abs(avg) > 0.01*want {
		t.Errorf("post-ramp average cap current = %v, want ~0", avg)
	}
}

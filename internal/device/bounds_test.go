package device_test

import (
	"math"
	"math/rand"
	"testing"

	"stanoise/internal/device"
	"stanoise/internal/tech"
)

// cards returns NMOS and PMOS instance cards of both technologies at the
// ss, tt and ff corners, at two widths each.
func cards(t *testing.T) (out []device.Params) {
	t.Helper()
	for _, base := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, name := range []string{"ss", "tt", "ff"} {
			c, err := tech.CornerByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tc := c.Apply(base)
			for _, w := range []float64{tc.WUnit, 4 * tc.WUnit} {
				out = append(out, tc.NMOSDevice(w), tc.PMOSDevice(w))
			}
		}
	}
	return out
}

// The stop certificate's device law (DESIGN.md §31): with the gate held,
// Level-1 is a monotone two-terminal conductance, ∂id/∂vd ≥ 0 and
// ∂id/∂vs ≤ 0, in every region and both directions of the channel, for
// NMOS and PMOS on both cards at ss, tt and ff, over a dense grid that
// reaches 0.3 V past each rail.
func TestDrainSourceConductancesMonotone(t *testing.T) {
	for _, p := range cards(t) {
		if p.Lambda < 0 {
			t.Fatalf("%v card with λ = %g < 0", p.Kind, p.Lambda)
		}
		for vd := -0.3; vd <= 1.7; vd += 0.04 {
			for vg := -0.3; vg <= 1.7; vg += 0.04 {
				for vs := -0.3; vs <= 1.7; vs += 0.04 {
					if _, gd, _, gs := p.Eval(vd, vg, vs); !(gd >= 0 && gs <= 0) {
						t.Fatalf("%v W=%g at (%g, %g, %g): gd %g, gs %g", p.Kind, p.W, vd, vg, vs, gd, gs)
					}
				}
			}
		}
	}
}

// ConductanceBounds covers Eval: in random boxes, from points to ones
// wider than the rails and straddling both directions of the channel,
// every sampled |gd|, |gg| and |gs| is at most gmax, and any two sampled
// gd, and any two gs, differ by at most spread.
func TestConductanceBoundsCoverSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, p := range cards(t) {
		for range 400 {
			var box [3][2]float64
			for i := range box {
				c := -0.3 + 2*rng.Float64()
				w := 0.0
				switch rng.Intn(4) {
				case 1:
					w = 0.01 * rng.Float64()
				case 2:
					w = 0.3 * rng.Float64()
				case 3:
					w = 1.5 * rng.Float64()
				}
				box[i] = [2]float64{c - w, c + w}
			}
			gmax, spread := p.ConductanceBounds(box[0], box[1], box[2])
			gdLo, gdHi, gsLo, gsHi := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
			for k := range 64 {
				var v [3]float64
				for i := range v {
					f := rng.Float64()
					if k < 8 {
						f = float64(k >> i & 1) // the box's corners
					}
					v[i] = box[i][0] + f*(box[i][1]-box[i][0])
				}
				_, gd, gg, gs := p.Eval(v[0], v[1], v[2])
				if math.Abs(gd) > gmax || math.Abs(gg) > gmax || math.Abs(gs) > gmax {
					t.Fatalf("%v W=%g box %v: at %v gd %g gg %g gs %g, bound %g", p.Kind, p.W, box, v, gd, gg, gs, gmax)
				}
				gdLo, gdHi = math.Min(gdLo, gd), math.Max(gdHi, gd)
				gsLo, gsHi = math.Min(gsLo, gs), math.Max(gsHi, gs)
			}
			if gdHi-gdLo > spread || gsHi-gsLo > spread {
				t.Fatalf("%v W=%g box %v: gd spans %g, gs %g, spread bound %g", p.Kind, p.W, box, gdHi-gdLo, gsHi-gsLo, spread)
			}
		}
	}
}

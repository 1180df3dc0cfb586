package tech

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Corner describes a process/voltage/temperature operating corner as a set
// of deltas applied to a nominal technology card: a supply multiplier, a
// junction temperature, per-device threshold shifts and per-device mobility
// multipliers. The zero value is the nominal (typical/typical) corner; every
// field has zero-means-nominal semantics so cards, cache keys and stores
// built before the corner axis existed keep their exact identity.
//
// Corners are applied with Apply, which derives a new card; the derived
// card carries the corner so downstream fingerprints (charstore keys,
// charlib cache keys) pick up the corner dimension automatically.
type Corner struct {
	// Name labels the corner ("tt", "ss", "mc0041", ...). It participates
	// in fingerprints so two differently-named corners never alias even if
	// their deltas coincide.
	Name string

	// VddScale multiplies the card's supply voltage; 0 means 1.0 (nominal).
	VddScale float64
	// TempC is the junction temperature in °C; 0 means 25 °C (nominal).
	// Temperature scales mobility as (T/T0)^-1.5 and walks thresholds
	// toward zero by ~1 mV/°C, the standard Level-1 first-order behaviour.
	TempC float64
	// NVTShift is added to the NMOS threshold VT0 (V). Positive = slower.
	NVTShift float64
	// PVTShift is added to the PMOS threshold VT0 (V). VT0 is negative for
	// PMOS, so a negative shift makes the device slower.
	PVTShift float64
	// NKPScale multiplies the NMOS transconductance KP; 0 means 1.0.
	NKPScale float64
	// PKPScale multiplies the PMOS transconductance KP; 0 means 1.0.
	PKPScale float64
}

// nominalTempC is the reference junction temperature of the cards.
const nominalTempC = 25.0

// vddScale resolves the zero-means-nominal supply multiplier.
func (c Corner) vddScale() float64 {
	if c.VddScale == 0 {
		return 1
	}
	return c.VddScale
}

// tempC resolves the zero-means-nominal junction temperature.
func (c Corner) tempC() float64 {
	if c.TempC == 0 {
		return nominalTempC
	}
	return c.TempC
}

// nkpScale resolves the zero-means-nominal NMOS mobility multiplier.
func (c Corner) nkpScale() float64 {
	if c.NKPScale == 0 {
		return 1
	}
	return c.NKPScale
}

// pkpScale resolves the zero-means-nominal PMOS mobility multiplier.
func (c Corner) pkpScale() float64 {
	if c.PKPScale == 0 {
		return 1
	}
	return c.PKPScale
}

// IsNominal reports whether the corner's deltas leave a card untouched.
// The name is ignored: "tt" is nominal, and a nominal corner applied to a
// card yields the base card itself, so tt artefacts share keys (and store
// entries) with legacy corner-less runs by construction.
func (c Corner) IsNominal() bool {
	return c.vddScale() == 1 && c.tempC() == nominalTempC &&
		c.NVTShift == 0 && c.PVTShift == 0 &&
		c.nkpScale() == 1 && c.pkpScale() == 1
}

// Apply derives the technology card for this corner. A nominal corner
// returns the base card unchanged (same pointer — bit-identical keys and
// artefacts). Otherwise the returned card is a shallow copy with scaled
// supply, shifted thresholds and scaled mobilities, carrying the corner in
// its Corner field so every downstream fingerprint includes it. The wire
// parasitics map is shared with the base card: corners model device and
// supply variation; interconnect variation is a layout property outside
// this axis (see docs/ARCHITECTURE.md).
func (c Corner) Apply(t *Tech) *Tech {
	if c.IsNominal() {
		return t
	}
	d := *t
	d.VDD = t.VDD * c.vddScale()
	// First-order temperature behaviour: mobility falls as (T/T0)^-1.5,
	// threshold magnitude falls ~1 mV/°C.
	tk := c.tempC() + 273.15
	tempKP := math.Pow(tk/(nominalTempC+273.15), -1.5)
	dvt := 1e-3 * (c.tempC() - nominalTempC)
	d.NMOS.KP = t.NMOS.KP * c.nkpScale() * tempKP
	d.PMOS.KP = t.PMOS.KP * c.pkpScale() * tempKP
	d.NMOS.VT0 = t.NMOS.VT0 + c.NVTShift - dvt
	d.PMOS.VT0 = t.PMOS.VT0 + c.PVTShift + dvt
	// The C_GS transition of the nonlinear gate-charge model is anchored
	// at the threshold (P0 = −P1·VT0, see WithNonlinearCaps); shift it
	// alongside VT0 so the capacitance still rises where the channel
	// forms. The C_GD transition is overlap-bias-anchored and stays put.
	// This makes Apply commute with WithNonlinearCaps exactly.
	if d.NMOS.CNLFrac != 0 {
		d.NMOS.CNLGSP0 = t.NMOS.CNLGSP0 - d.NMOS.CNLGSP1*(c.NVTShift-dvt)
	}
	if d.PMOS.CNLFrac != 0 {
		d.PMOS.CNLGSP0 = t.PMOS.CNLGSP0 - d.PMOS.CNLGSP1*(c.PVTShift+dvt)
	}
	cc := c
	d.Corner = &cc
	return &d
}

// Fingerprint renders the corner canonically for cache and store keys: the
// name plus every resolved delta at full precision. Two corners with
// different names or different deltas therefore never alias.
func (c Corner) Fingerprint() string {
	return fmt.Sprintf("corner=%s vdd*=%.17g T=%.17g NVT+=%.17g PVT+=%.17g NKP*=%.17g PKP*=%.17g",
		c.Name, c.vddScale(), c.tempC(), c.NVTShift, c.PVTShift, c.nkpScale(), c.pkpScale())
}

// Axis returns the corner's coordinate along the severity axis: an
// aggregate drive-strength measure (supply and mobility up, thresholds and
// temperature down = stronger), so corners adjacent on this axis have
// adjacent operating points. charlib.OrderCorners sorts a sweep's results
// by it.
func (c Corner) Axis() float64 {
	return c.vddScale() + (c.nkpScale()+c.pkpScale())/2 -
		(c.NVTShift - c.PVTShift) - (c.tempC()-nominalTempC)/300
}

// StandardCorners returns the five named process corners in their canonical
// order: tt (nominal), ff, ss, fs, sf. The tt corner has zero deltas, so
// applying it is the identity.
func StandardCorners() []Corner {
	return []Corner{
		{Name: "tt"},
		{Name: "ff", VddScale: 1.05, NVTShift: -0.03, PVTShift: 0.03, NKPScale: 1.12, PKPScale: 1.12},
		{Name: "ss", VddScale: 0.95, NVTShift: 0.03, PVTShift: -0.03, NKPScale: 0.88, PKPScale: 0.88},
		{Name: "fs", NVTShift: -0.03, PVTShift: -0.03, NKPScale: 1.12, PKPScale: 0.88},
		{Name: "sf", NVTShift: 0.03, PVTShift: 0.03, NKPScale: 0.88, PKPScale: 1.12},
	}
}

// CornerByName resolves a standard corner name. The empty string and "tt"
// both resolve to the nominal corner, mirroring how an absent corner flag
// behaves everywhere else.
func CornerByName(name string) (Corner, error) {
	if name == "" {
		return Corner{Name: "tt"}, nil
	}
	for _, c := range StandardCorners() {
		if c.Name == name {
			return c, nil
		}
	}
	return Corner{}, fmt.Errorf("tech: unknown corner %q (have tt, ff, ss, fs, sf)", name)
}

// ParseCorners resolves a comma-separated list of standard corner names
// ("tt,ss,ff"). Blank elements are skipped; duplicates are rejected so a
// farm invocation never silently double-characterises a corner.
func ParseCorners(list string) ([]Corner, error) {
	var out []Corner
	seen := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, err := CornerByName(name)
		if err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("tech: duplicate corner %q", c.Name)
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out, nil
}

// The local-variation sigmas of the Monte Carlo corner sampler: the
// standard deviation of the per-device threshold shift (V) and of the
// per-device mobility multiplier around 1.
const (
	sigmaVT     = 0.015
	sigmaKPFrac = 0.05
)

// SampleSpec tunes the Monte Carlo corner sampler. The zero value samples
// around the nominal corner.
type SampleSpec struct {
	// Base is the corner the samples perturb around (supply, temperature
	// and systematic shifts come from it); the zero value samples around
	// nominal.
	Base Corner
}

// SampleCorners draws n Monte Carlo device-variation corners from a seeded
// generator: independent Gaussian threshold shifts and mobility multipliers
// per device polarity, stacked on the spec's base corner. The same
// (n, seed, spec) always yields the same samples, so MC artefact keys are
// reproducible across runs and machines. Sample names are "mc0000",
// "mc0001", ... (prefixed with the base corner's name when perturbing a
// non-nominal base), and each sample's index is baked into its name so two
// samples from one draw never alias.
func SampleCorners(n int, seed int64, spec SampleSpec) []Corner {
	rng := rand.New(rand.NewSource(seed))
	prefix := "mc"
	if !spec.Base.IsNominal() {
		prefix = spec.Base.Name + "+mc"
	}
	out := make([]Corner, 0, n)
	for i := 0; i < n; i++ {
		c := spec.Base
		c.Name = fmt.Sprintf("%s%04d", prefix, i)
		c.NVTShift += rng.NormFloat64() * sigmaVT
		c.PVTShift += rng.NormFloat64() * sigmaVT
		c.NKPScale = clampScale(c.nkpScale() * (1 + rng.NormFloat64()*sigmaKPFrac))
		c.PKPScale = clampScale(c.pkpScale() * (1 + rng.NormFloat64()*sigmaKPFrac))
		out = append(out, c)
	}
	return out
}

// clampScale keeps sampled mobility multipliers physical (strictly
// positive); the 3-sigma default never comes near the floor.
func clampScale(s float64) float64 {
	if s < 0.05 {
		return 0.05
	}
	return s
}

// CornerTag names the corner a card was derived for: the corner name, or
// "nominal" for a base card. It labels the per-corner cache and solver
// counters exposed on /statsz.
func (t *Tech) CornerTag() string {
	if t.Corner == nil {
		return "nominal"
	}
	return t.Corner.Name
}

// FullName renders the card name with its corner ("cmos130@ss"), for logs
// and library metadata; base cards render as the plain name.
func (t *Tech) FullName() string {
	if t.Corner == nil {
		return t.Name
	}
	return t.Name + "@" + t.Corner.Name
}

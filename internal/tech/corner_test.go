package tech

import (
	"reflect"
	"testing"
)

// TestNominalCornerIsIdentity proves the nominal corner applies to the
// identity — same pointer, no derived card — which is what keeps legacy
// cache and store keys bit-stable with the corner axis at its zero value.
func TestNominalCornerIsIdentity(t *testing.T) {
	base := Tech130()
	for _, c := range []Corner{{}, {Name: "tt"}} {
		if !c.IsNominal() {
			t.Fatalf("corner %+v should be nominal", c)
		}
		if got := c.Apply(base); got != base {
			t.Fatalf("nominal corner derived a new card: %p != %p", got, base)
		}
	}
	if base.Corner != nil {
		t.Fatalf("base card gained a corner: %+v", base.Corner)
	}
	if base.CornerTag() != "nominal" || base.FullName() != "cmos130" {
		t.Fatalf("nominal tag/name wrong: %q %q", base.CornerTag(), base.FullName())
	}
}

// TestCornerApplyScalesDevices checks the slow corner weakens both devices
// (lower supply, higher threshold magnitude, lower mobility), leaves the
// base card untouched, and stamps the derived card with the corner.
func TestCornerApplyScalesDevices(t *testing.T) {
	base := Tech130()
	ss, err := CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	d := ss.Apply(base)
	if d == base {
		t.Fatal("ss corner returned the base card")
	}
	if !(d.VDD < base.VDD) {
		t.Fatalf("ss VDD %.3g not below nominal %.3g", d.VDD, base.VDD)
	}
	if !(d.NMOS.VT0 > base.NMOS.VT0) || !(d.PMOS.VT0 < base.PMOS.VT0) {
		t.Fatalf("ss thresholds not slower: N %.3g->%.3g P %.3g->%.3g",
			base.NMOS.VT0, d.NMOS.VT0, base.PMOS.VT0, d.PMOS.VT0)
	}
	if !(d.NMOS.KP < base.NMOS.KP) || !(d.PMOS.KP < base.PMOS.KP) {
		t.Fatalf("ss mobility not lower: N %.3g->%.3g P %.3g->%.3g",
			base.NMOS.KP, d.NMOS.KP, base.PMOS.KP, d.PMOS.KP)
	}
	if d.Corner == nil || d.Corner.Name != "ss" {
		t.Fatalf("derived card corner = %+v", d.Corner)
	}
	if d.CornerTag() != "ss" || d.FullName() != "cmos130@ss" {
		t.Fatalf("tag/name wrong: %q %q", d.CornerTag(), d.FullName())
	}
	if base.VDD != 1.2 || base.Corner != nil {
		t.Fatalf("base card mutated: VDD=%g corner=%+v", base.VDD, base.Corner)
	}
}

// TestCornerTemperatureEffects checks the first-order temperature model: a
// hot corner loses mobility and threshold magnitude.
func TestCornerTemperatureEffects(t *testing.T) {
	base := Tech130()
	hot := Corner{Name: "tt_125c", TempC: 125}
	d := hot.Apply(base)
	if d == base {
		t.Fatal("hot corner returned the base card")
	}
	if !(d.NMOS.KP < base.NMOS.KP) {
		t.Fatalf("hot KP %.4g not below nominal %.4g", d.NMOS.KP, base.NMOS.KP)
	}
	if !(d.NMOS.VT0 < base.NMOS.VT0) || !(d.PMOS.VT0 > base.PMOS.VT0) {
		t.Fatalf("hot thresholds did not walk toward zero: N %.3g->%.3g P %.3g->%.3g",
			base.NMOS.VT0, d.NMOS.VT0, base.PMOS.VT0, d.PMOS.VT0)
	}
}

// TestParseCorners exercises the list parser: blanks skipped, duplicates
// and unknown names rejected.
func TestParseCorners(t *testing.T) {
	got, err := ParseCorners(" tt, ss ,ff,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != "tt" || got[1].Name != "ss" || got[2].Name != "ff" {
		t.Fatalf("parsed %+v", got)
	}
	if _, err := ParseCorners("tt,tt"); err == nil {
		t.Fatal("duplicate corner accepted")
	}
	if _, err := ParseCorners("xx"); err == nil {
		t.Fatal("unknown corner accepted")
	}
	if _, err := CornerByName("zz"); err == nil {
		t.Fatal("unknown corner name accepted")
	}
	if c, err := CornerByName(""); err != nil || !c.IsNominal() {
		t.Fatalf("empty corner name: %+v %v", c, err)
	}
}

// TestSampleCornersDeterministic proves the MC sampler is a pure function
// of (n, seed, spec): identical draws repeat exactly, different seeds
// differ, and sample names are unique within a draw.
func TestSampleCornersDeterministic(t *testing.T) {
	a := SampleCorners(8, 42, SampleSpec{})
	b := SampleCorners(8, 42, SampleSpec{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different samples:\n%+v\n%+v", a, b)
	}
	c := SampleCorners(8, 43, SampleSpec{})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical samples")
	}
	names := map[string]bool{}
	for _, s := range a {
		if names[s.Name] {
			t.Fatalf("duplicate sample name %q", s.Name)
		}
		names[s.Name] = true
		if s.IsNominal() {
			t.Fatalf("sample %q drew exactly nominal deltas", s.Name)
		}
		if s.NKPScale <= 0 || s.PKPScale <= 0 {
			t.Fatalf("sample %q has non-physical mobility: %+v", s.Name, s)
		}
	}
	// Perturbing a non-nominal base keeps its systematic shifts in play.
	ss, _ := CornerByName("ss")
	d := SampleCorners(2, 7, SampleSpec{Base: ss})
	for _, s := range d {
		if s.Name != "ss+mc0000" && s.Name != "ss+mc0001" {
			t.Fatalf("base-prefixed name wrong: %q", s.Name)
		}
		if s.VddScale != ss.VddScale {
			t.Fatalf("sample lost the base supply scale: %+v", s)
		}
	}
}

// TestCornerAxisOrdersBySeverity pins the severity axis: slow corners
// sort below nominal, fast corners above, so adjacent list entries have
// adjacent operating points.
func TestCornerAxisOrdersBySeverity(t *testing.T) {
	byName := map[string]Corner{}
	for _, c := range StandardCorners() {
		byName[c.Name] = c
	}
	ss, tt, ff := byName["ss"].Axis(), byName["tt"].Axis(), byName["ff"].Axis()
	if !(ss < tt && tt < ff) {
		t.Fatalf("axis ordering wrong: ss=%.3g tt=%.3g ff=%.3g", ss, tt, ff)
	}
}

// TestCornerFingerprintDistinct checks every standard corner (and an MC
// sample) renders a distinct fingerprint — the property the cache and store
// keys inherit.
func TestCornerFingerprintDistinct(t *testing.T) {
	seen := map[string]string{}
	all := append(StandardCorners(), SampleCorners(4, 1, SampleSpec{})...)
	for _, c := range all {
		fp := c.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("corners %q and %q share fingerprint %q", prev, c.Name, fp)
		}
		seen[fp] = c.Name
	}
}

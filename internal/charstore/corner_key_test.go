package charstore

import (
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestNominalCornerKeysBitStable proves the corner axis at its zero value
// leaves every pre-corner key untouched: a nominal corner applies to the
// identity card, the tech fingerprint renders no corner segment, and the
// derived store key is exactly the legacy one.
func TestNominalCornerKeysBitStable(t *testing.T) {
	base := tech.Tech130()
	fp := base.Fingerprint()
	if strings.Contains(fp, "Corner{") {
		t.Fatalf("nominal fingerprint grew a corner segment: %q", fp)
	}
	tt, err := tech.CornerByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	applied := tt.Apply(base)
	if applied.Fingerprint() != fp {
		t.Fatalf("tt fingerprint differs from nominal:\n%q\n%q", applied.Fingerprint(), fp)
	}

	inv := cell.MustNew(base, "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	legacyKey, err := Key("lc", inv, st, "A", "61,61,0.2")
	if err != nil {
		t.Fatal(err)
	}
	ttKey, err := Key("lc", cell.MustNew(applied, "INV", 1), st, "A", "61,61,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if legacyKey != ttKey {
		t.Fatalf("tt key %s differs from legacy key %s", ttKey, legacyKey)
	}
}

// TestCornerKeysNeverAlias is the key-separation property test: across
// every standard corner, a batch of Monte Carlo samples, and several
// option variants of each (plain, seeded, and with a corner-naming
// suffix), every derived store key — and every corner fingerprint feeding
// it — is distinct.
func TestCornerKeysNeverAlias(t *testing.T) {
	base := tech.Tech130()
	corners := append(tech.StandardCorners(), tech.SampleCorners(16, 12345, tech.SampleSpec{})...)
	variants := []string{
		"61,61,0.2",                      // cold
		"61,61,0.2,warm",                 // warm-started
		"61,61,0.2,warm,cont={corner=x}", // corner-naming suffix
	}
	seen := map[string]string{}
	fps := map[string]string{}
	for _, c := range corners {
		card := c.Apply(base)
		if fp := card.Fingerprint(); fps[fp] != "" && fps[fp] != c.Name {
			t.Fatalf("corners %q and %q share tech fingerprint", fps[fp], c.Name)
		} else {
			fps[fp] = c.Name
		}
		cl := cell.MustNew(card, "INV", 1)
		st, err := cl.SensitizedState("A", true)
		if err != nil {
			t.Fatal(err)
		}
		for _, optsFP := range variants {
			key, err := Key("lc", cl, st, "A", optsFP)
			if err != nil {
				t.Fatal(err)
			}
			id := c.Name + "/" + optsFP
			if prev, ok := seen[key]; ok {
				t.Fatalf("configurations %q and %q alias to key %s", prev, id, key)
			}
			seen[key] = id
		}
	}
	if want := len(corners) * len(variants); len(seen) != want {
		t.Fatalf("expected %d distinct keys, got %d", want, len(seen))
	}
}

// TestSameNumbersDifferentCornerNamesNeverAlias pins the identity part of
// the corner fingerprint: two corners with identical deltas but different
// names must still key differently (an MC registry may assign semantic
// names to numerically coincident samples).
func TestSameNumbersDifferentCornerNamesNeverAlias(t *testing.T) {
	base := tech.Tech130()
	a := tech.Corner{Name: "slow_a", VddScale: 0.9}
	b := tech.Corner{Name: "slow_b", VddScale: 0.9}
	ka, err := Key("lc", cell.MustNew(a.Apply(base), "INV", 1), cell.State{}, "A", "fp")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key("lc", cell.MustNew(b.Apply(base), "INV", 1), cell.State{}, "A", "fp")
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatalf("same-delta corners with different names alias to %s", ka)
	}
}

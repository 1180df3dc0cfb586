package charlib

import (
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestCellKeyNLCapAxis pins the in-memory cache key on the nonlinear-cap
// axis: a WithNonlinearCaps card keys distinctly from the constant-cap card
// it was derived from, and the axis composes with the corner axis without
// aliasing.
func TestCellKeyNLCapAxis(t *testing.T) {
	base := tech.Tech130()
	nl := base.WithNonlinearCaps()
	st := cell.State{"A": false}

	legacy := cellKey("lc", cell.MustNew(base, "INV", 1), st, "A", "q=std")
	if nlKey := cellKey("lc", cell.MustNew(nl, "INV", 1), st, "A", "q=std"); nlKey == legacy {
		t.Fatalf("nl and constant-cap configurations alias to %q", legacy)
	}

	// Corner × nlcap: all four combinations distinct.
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, card := range map[string]*tech.Tech{
		"nom":       base,
		"nom+nl":    nl,
		"corner":    ss.Apply(base),
		"corner+nl": ss.Apply(nl),
	} {
		k := cellKey("lc", cell.MustNew(card, "INV", 1), st, "A", "q=std")
		if prev, ok := keys[k]; ok {
			t.Fatalf("configurations %q and %q alias to %q", prev, name, k)
		}
		keys[k] = name
	}
}

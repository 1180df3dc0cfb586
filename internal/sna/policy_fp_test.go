package sna

import (
	"context"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/nrc"
	"stanoise/internal/tech"
)

// fpRecorder is a persistent tier that records the options fingerprint of
// every lookup and answers it with an empty artefact of the right type, so
// the fingerprints the cache derives can be read without characterising.
type fpRecorder map[string]string

func (r fpRecorder) Get(kind string, _ *cell.Cell, _ cell.State, _, optsFP string) (any, bool) {
	r[kind] = optsFP
	switch kind {
	case "lc":
		return &charlib.LoadCurve{}, true
	case "prop":
		return &charlib.PropTable{}, true
	}
	return &nrc.Curve{}, true
}

func (fpRecorder) Put(string, *cell.Cell, cell.State, string, string, any) error { return nil }

// TestPinnedPolicyFingerprints pins the options fingerprints the
// characterisation cache derives from an analysis's solver policy — the
// optsFP every charlib memory key and charstore key is built from — at the
// default grids, for all four policies. The load curve is a DC sweep, so it
// never carries ",pred".
func TestPinnedPolicyFingerprints(t *testing.T) {
	ctx := context.Background()
	c := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := c.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	const (
		prop = "[0.18 0.36 0.54 0.72 0.8999999999999999 1.08 1.2 1.32],[6e-11 1.2e-10 2.4e-10 4.8e-10 9e-10],[1e-14 4e-14 1.2e-13 3e-13],1e-12"
		nrcs = "[5e-11 1e-10 2e-10 4e-10 8e-10 1.6e-09],3e-14,0.5,0.01,2e-12"
	)
	for _, tc := range []struct {
		warm, pred    bool
		lc, prop, nrc string
	}{
		{false, false, "61,61,0.2", prop, nrcs},
		{true, false, "61,61,0.2,warm", prop + ",warm", nrcs + ",warm"},
		{false, true, "61,61,0.2", prop + ",pred", nrcs + ",pred"},
		{true, true, "61,61,0.2,warm", prop + ",warm,pred", nrcs + ",warm,pred"},
	} {
		var o Options
		o.WarmStart, o.Predictor = tc.warm, tc.pred
		o = o.normalize()
		rec := fpRecorder{}
		cache := charlib.NewCache()
		cache.SetStore(rec)
		if _, err := cache.LoadCurve(ctx, c, st, "A", o.LoadCurve); err != nil {
			t.Fatal(err)
		}
		if _, err := cache.PropTable(ctx, c, st, "A", o.Prop); err != nil {
			t.Fatal(err)
		}
		nopts := o.NRC
		nopts.FailFrac = o.FailFrac
		if _, err := cache.NRCCurve(ctx, c, st, "A", nopts); err != nil {
			t.Fatal(err)
		}
		if rec["lc"] != tc.lc || rec["prop"] != tc.prop || rec["nrc"] != tc.nrc {
			t.Errorf("warm=%v pred=%v: fingerprints (lc %q, prop %q, nrc %q), want (%q, %q, %q)",
				tc.warm, tc.pred, rec["lc"], rec["prop"], rec["nrc"], tc.lc, tc.prop, tc.nrc)
		}
	}
}

package sna

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/core"
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
// characterisation cache derives for an analysis at the default grids —
// the optsFP every charlib memory key and charstore key is built from.
// They end in the seeding suffixes the earlier opt-in -warm-start
// -predictor runs keyed on, so stores written under those flags stay
// reachable and no cold-built entry is ever served: ",warm" on the DC-only
// load curve, ",warm,pred" on the transient prop table and NRC curve. The
// prop table adds ",lte", its adaptive time axis, so no table built on the
// fixed grid is served.
func TestPinnedPolicyFingerprints(t *testing.T) {
	ctx := context.Background()
	c := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := c.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	const (
		lc   = "61,61,0.2,warm"
		prop = "[0.18 0.36 0.54 0.72 0.8999999999999999 1.08 1.2 1.32],[6e-11 1.2e-10 2.4e-10 4.8e-10 9e-10],[1e-14 4e-14 1.2e-13 3e-13],1e-12,warm,pred,lte"
		nrcs = "[5e-11 1e-10 2e-10 4e-10 8e-10 1.6e-09],3e-14,0.5,0.01,2e-12,warm,pred"
	)
	o := Options{}.normalize()
	rec := fpRecorder{}
	cache := charlib.NewCache()
	cache.SetStore(rec)
	if _, err := cache.LoadCurve(ctx, c, st, "A", o.LoadCurve); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.PropTable(ctx, c, st, "A", o.Prop); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.NRCCurve(ctx, c, st, "A", o.NRC); err != nil {
		t.Fatal(err)
	}
	if rec["lc"] != lc || rec["prop"] != prop || rec["nrc"] != nrcs {
		t.Errorf("fingerprints (lc %q, prop %q, nrc %q), want (%q, %q, %q)",
			rec["lc"], rec["prop"], rec["nrc"], lc, prop, nrcs)
	}
}

// TestPinnedTheveninFingerprint pins the options fingerprint of the
// Thevenin fits of one generated cluster's two aggressors: the lumped load,
// the input ramp, the golden step and the two matched crossings, each
// %.17g. It is the optsFP of every "thev" memory and store key, so these
// literals keep stored fits reachable whatever shape the fit options take.
func TestPinnedTheveninFingerprint(t *testing.T) {
	d := GenerateDesign("reference", 48)
	cl, err := d.BuildCluster(d.Clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	cache := charlib.NewCache()
	if _, err := cl.BuildModels(context.Background(), core.ModelOptions{Cache: cache, SkipProp: true}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, k := range cache.Keys() {
		if strings.HasPrefix(k, "thev|") {
			got = append(got, k[strings.LastIndex(k, "|")+1:])
		}
	}
	sort.Strings(got)
	want := []string{
		"3.53185e-14,7.9999999999999995e-11,2.0000000000000001e-10,9.9999999999999998e-13,0.5,0.80000000000000004",
		"3.8798500000000001e-14,7.9999999999999995e-11,2.0000000000000001e-10,9.9999999999999998e-13,0.5,0.80000000000000004",
	}
	if !slices.Equal(got, want) {
		t.Errorf("thevenin fingerprints %q, want %q", got, want)
	}
}

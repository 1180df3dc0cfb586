package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"stanoise/internal/sna"
)

// TestDecodeBoolKnobs pins the contract every per-request bool knob shares
// through the decode table: an absent knob inherits the server's base
// option in both polarities, an explicit value overrides it in both
// directions, and a wrong JSON type is a typed bad_json rejection, never a
// panic or a silent default.
func TestDecodeBoolKnobs(t *testing.T) {
	knobs := []struct {
		name string
		opt  func(*sna.Options) *bool
	}{
		{"align", func(o *sna.Options) *bool { return &o.Align }},
		{"warm_start", func(o *sna.Options) *bool { return &o.WarmStart }},
		{"predictor", func(o *sna.Options) *bool { return &o.Predictor }},
		{"feasibility", func(o *sna.Options) *bool { return &o.Feasibility }},
		{"nonlinear_caps", func(o *sna.Options) *bool { return &o.NonlinearCaps }},
	}
	cases := []struct {
		name   string
		baseOn bool
		value  any // nil: the knob is absent from the request
		want   bool
	}{
		{"absent_default_off", false, nil, false},
		{"absent_default_on", true, nil, true},
		{"explicit_on_overrides_off", false, true, true},
		{"explicit_off_overrides_on", true, false, false},
		{"wrong_type_is_bad_json", false, "yes", false},
	}
	design := sna.SampleDesign()
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					s := NewServer(Config{})
					*k.opt(&s.base) = tc.baseOn
					var extra map[string]any
					if tc.value != nil {
						extra = map[string]any{k.name: tc.value}
					}
					p, rerr := s.decodeRequest(bytes.NewReader(requestBody(t, design, extra)))
					if _, wrongType := tc.value.(string); wrongType {
						if rerr == nil || rerr.Code != "bad_json" {
							t.Fatalf("%s: %q decoded to %+v, want a bad_json rejection", k.name, tc.value, rerr)
						}
						return
					}
					if rerr != nil {
						t.Fatalf("decode failed: %v", rerr)
					}
					if got := *k.opt(&p.opts); got != tc.want {
						t.Errorf("%s = %v, want %v", k.name, got, tc.want)
					}
				})
			}
		})
	}
}

// TestRequestWarmStartOffOverridesServerPolicy holds the request's policy
// to being the only source of every sweep's policy: a server whose base
// has warm start on, at the top level and in every sub-option, must
// characterise a request sending "warm_start": false cold, so no
// load-curve, prop-table or NRC key it builds carries the warm fingerprint.
func TestRequestWarmStartOffOverridesServerPolicy(t *testing.T) {
	cfg := Config{Analysis: fastAnalysis()}
	cfg.Analysis.WarmStart = true
	cfg.Analysis.LoadCurve.WarmStart = true
	cfg.Analysis.Prop.WarmStart = true
	cfg.Analysis.NRC.WarmStart = true
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	d := sna.SampleDesign()
	d.Clusters = d.Clusters[1:] // ctrl_en: one aggressor, quick to characterise
	postAnalyze(t, ts.Client(), ts.URL, requestBody(t, d, map[string]any{
		"method": "superposition", "align": false, "warm_start": false,
	}))
	built := map[string]bool{}
	for _, key := range s.cache.Keys() {
		kind, _, _ := strings.Cut(key, "|")
		built[kind] = true
		if strings.Contains(key, ",warm") {
			t.Errorf("%s artefact characterised warm despite \"warm_start\": false: %s", kind, key)
		}
	}
	for _, kind := range []string{"lc", "prop", "nrc"} {
		if !built[kind] {
			t.Errorf("request built no %s artefact (built %v)", kind, built)
		}
	}
}

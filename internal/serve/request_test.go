package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"stanoise/internal/sna"
)

// TestDecodeBoolKnobs pins the contract every per-request bool knob shares
// through the decode table: an absent knob inherits the server's base
// option in both polarities, an explicit value overrides it in both
// directions, and a wrong JSON type is a typed bad_json rejection, never a
// panic or a silent default. The removed solver-mode knobs warm_start and
// predictor are unknown fields: either value is a bad_json rejection that
// names the field, so a client still sending them fails loudly.
func TestDecodeBoolKnobs(t *testing.T) {
	knobs := []struct {
		name string
		opt  func(*sna.Options) *bool
	}{
		{"align", func(o *sna.Options) *bool { return &o.Align }},
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
	for _, name := range []string{"warm_start", "predictor"} {
		t.Run(name, func(t *testing.T) {
			for _, v := range []bool{true, false} {
				t.Run(fmt.Sprintf("%v_is_bad_json", v), func(t *testing.T) {
					_, rerr := NewServer(Config{}).decodeRequest(bytes.NewReader(requestBody(t, design, map[string]any{name: v})))
					if rerr == nil || rerr.Code != "bad_json" || !strings.Contains(rerr.Message, `"`+name+`"`) {
						t.Fatalf("removed knob %s=%v decoded to %+v, want a bad_json rejection naming the field", name, v, rerr)
					}
				})
			}
		})
	}
}

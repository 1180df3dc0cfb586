package stanoise_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stanoise/paper"
)

// TestExperimentsMatchPaperQuick holds EXPERIMENTS.md's quick numbers for
// the paper's evaluation to testdata/golden/paper_quick.json, the fixture
// TestGoldenPaperQuick pins to what `noisetab -quality quick` prints. Each
// non-reference row's peak and area error of Table 1, Table 2 and the [4]
// context, and the C1 sweep's worst |peak error|, must appear in the
// matching section at one decimal as the file writes them: "−23.4 %" with
// a U+2212 minus, "+4.2 %", and the unsigned worst "7.5 %".
func TestExperimentsMatchPaperQuick(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "paper_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exps []paper.Experiment
	if err := json.Unmarshal(raw, &exps); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]string{
		"table1":  "## Table 1 ",
		"table2":  "## Table 2 ",
		"zolotov": "## Reference [4] context",
		"sweep":   "## Claim C1 ",
	}
	signed := func(v float64) string {
		return strings.Replace(fmt.Sprintf("%+.1f %%", v), "-", "−", 1)
	}
	for _, e := range exps {
		heading, ok := headings[e.ID]
		if !ok {
			t.Errorf("fixture experiment %q has no EXPERIMENTS.md section", e.ID)
			continue
		}
		sec := markdownSection(string(doc), heading)
		if sec == "" {
			t.Errorf("%s: no EXPERIMENTS.md section %q", e.ID, heading)
			continue
		}
		var want []string
		if e.ID == "sweep" {
			worst := 0.0
			for _, r := range e.Rows {
				worst = math.Max(worst, math.Abs(r.PeakErrPct))
			}
			want = append(want, fmt.Sprintf("%.1f %%", worst))
		} else {
			for _, r := range e.Rows {
				if !r.IsRef {
					want = append(want, signed(r.PeakErrPct), signed(r.AreaErrPct))
				}
			}
		}
		for _, w := range want {
			if !strings.Contains(sec, w) {
				t.Errorf("%s: EXPERIMENTS.md section %q does not quote the fixture's %q", e.ID, heading, w)
			}
		}
	}
	if len(exps) != len(headings) {
		t.Errorf("fixture holds %d experiments, want %d", len(exps), len(headings))
	}
}

// markdownSection returns the text of the "## " section of doc whose
// heading line starts with heading, up to the next "## " heading, or ""
// when there is none.
func markdownSection(doc, heading string) string {
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		return ""
	}
	sec := doc[i+1:]
	if j := strings.Index(sec, "\n## "); j >= 0 {
		sec = sec[:j]
	}
	return sec
}

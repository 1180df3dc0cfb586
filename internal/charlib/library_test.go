package charlib

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

func TestLibraryRoundTrip(t *testing.T) {
	tt := tech.Tech130()
	cl := cell.MustNew(tt, "INV", 1)
	lc, err := CharacterizeLoadCurve(context.Background(), cl, cell.State{"A": false}, "A",
		LoadCurveOptions{NVin: 11, NVout: 11})
	if err != nil {
		t.Fatal(err)
	}
	lib := &Library{Tech: tt.Name}
	lib.AddLoadCurve(lc)

	var b strings.Builder
	if err := lib.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var lib2 Library
	if err := json.Unmarshal([]byte(b.String()), &lib2); err != nil {
		t.Fatal(err)
	}
	if lib2.Tech != lib.Tech || len(lib2.LoadCurves) != 1 {
		t.Fatalf("round trip gave tech %q with %d curves, want %q with 1", lib2.Tech, len(lib2.LoadCurves), lib.Tech)
	}
	got := lib2.LoadCurves[0]
	// Identical interpolation behaviour after the round trip.
	for _, pt := range [][2]float64{{0.1, 1.1}, {0.62, 0.33}} {
		i1, _, _ := lc.Eval(pt[0], pt[1])
		i2, _, _ := got.Eval(pt[0], pt[1])
		if math.Abs(i1-i2) > 1e-15 {
			t.Errorf("eval mismatch at %v: %v vs %v", pt, i1, i2)
		}
	}
}

func TestLibraryReplaceSemantics(t *testing.T) {
	lib := &Library{}
	a := &LoadCurve{CellName: "X", State: "A=0", NoisyPin: "A", NVin: 2, NVout: 2, I: make([]float64, 4)}
	b := &LoadCurve{CellName: "X", State: "A=0", NoisyPin: "A", NVin: 2, NVout: 2, I: []float64{1, 1, 1, 1}}
	lib.AddLoadCurve(a)
	lib.AddLoadCurve(b)
	if len(lib.LoadCurves) != 1 {
		t.Fatalf("curves = %d, want 1 (replaced)", len(lib.LoadCurves))
	}
	if lib.LoadCurves[0].I[0] != 1 {
		t.Error("replacement kept the old data")
	}
}

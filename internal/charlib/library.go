package charlib

import (
	"encoding/json"
	"io"
)

// Library is a persistent collection of characterised artefacts for one
// technology — the noise view of a standard-cell library. It is what
// cmd/libchar produces and what a production flow would ship alongside
// timing libraries.
type Library struct {
	Tech string `json:"tech"`
	// Corner names the operating corner the library was characterised at
	// ("ss", "mc0007", ...); empty for nominal libraries, so pre-corner
	// library files round-trip byte-identically.
	Corner     string       `json:"corner,omitempty"`
	LoadCurves []*LoadCurve `json:"load_curves,omitempty"`
	PropTables []*PropTable `json:"prop_tables,omitempty"`
}

// key identifies an artefact by cell, state and pin.
func key(cellName, state, pin string) string { return cellName + "|" + state + "|" + pin }

// AddLoadCurve inserts or replaces a load curve.
func (l *Library) AddLoadCurve(lc *LoadCurve) {
	for i, old := range l.LoadCurves {
		if key(old.CellName, old.State, old.NoisyPin) == key(lc.CellName, lc.State, lc.NoisyPin) {
			l.LoadCurves[i] = lc
			return
		}
	}
	l.LoadCurves = append(l.LoadCurves, lc)
}

// AddPropTable inserts or replaces a propagation table.
func (l *Library) AddPropTable(pt *PropTable) {
	for i, old := range l.PropTables {
		if key(old.CellName, old.State, old.NoisyPin) == key(pt.CellName, pt.State, pt.NoisyPin) {
			l.PropTables[i] = pt
			return
		}
	}
	l.PropTables = append(l.PropTables, pt)
}

// WriteJSON serialises the library.
func (l *Library) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

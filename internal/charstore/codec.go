package charstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"stanoise/internal/charlib"
	"stanoise/internal/nrc"
	"stanoise/internal/thevenin"
)

// The on-disk payload codec. Deliberately hand-rolled rather than JSON or
// gob: it is deterministic (the same artefact always encodes to the same
// bytes — the round-trip property tests rely on that), it represents ±Inf
// exactly (NRC curves use +Inf for unfailable widths, which JSON cannot
// carry), and decoding validates every shape so a truncated or corrupted
// payload degrades to a cache miss instead of a malformed table.

// Artefact kind tags. These are part of the on-disk format: never renumber,
// only append.
const (
	kindLoadCurve byte = 1
	kindPropTable byte = 2
	kindNRCCurve  byte = 3
	kindThevenin  byte = 4
)

// KindLoadCurve, KindPropTable, KindNRCCurve and KindThevenin are the
// string names of the artefact kinds, shared with charlib.Cache keys.
const (
	KindLoadCurve = "lc"
	KindPropTable = "prop"
	KindNRCCurve  = "nrc"
	KindThevenin  = "thev"
)

// kindTag maps a kind name to its on-disk tag; ok=false for unknown kinds
// (which the store treats as unpersistable, never as an error).
func kindTag(kind string) (byte, bool) {
	switch kind {
	case KindLoadCurve:
		return kindLoadCurve, true
	case KindPropTable:
		return kindPropTable, true
	case KindNRCCurve:
		return kindNRCCurve, true
	case KindThevenin:
		return kindThevenin, true
	}
	return 0, false
}

// kindName is the inverse of kindTag, for export bundles.
func kindName(tag byte) string {
	switch tag {
	case kindLoadCurve:
		return KindLoadCurve
	case kindPropTable:
		return KindPropTable
	case kindNRCCurve:
		return KindNRCCurve
	case kindThevenin:
		return KindThevenin
	}
	return fmt.Sprintf("kind(%d)", tag)
}

// --- encoder -------------------------------------------------------------

type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) f64s(vs []float64) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

// --- decoder -------------------------------------------------------------

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("charstore: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("charstore: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("charstore: truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) f64s() []float64 {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Divide, don't multiply: 8*n wraps for a corrupted count near 2^61
	// and would slip past this guard into a make() panic.
	if n > uint64(len(d.b))/8 {
		d.fail("charstore: truncated float slice")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// --- artefact codecs -----------------------------------------------------

// encodeArtefact serialises a supported artefact to (kind tag, payload).
// ok=false means the value's type is not persistable; the store skips it.
func encodeArtefact(v any) (tag byte, payload []byte, ok bool) {
	var e enc
	switch a := v.(type) {
	case *charlib.LoadCurve:
		e.str(a.CellName)
		e.str(a.State)
		e.str(a.NoisyPin)
		e.f64(a.VinMin)
		e.f64(a.VinMax)
		e.f64(a.VoutMin)
		e.f64(a.VoutMax)
		e.uvarint(uint64(a.NVin))
		e.uvarint(uint64(a.NVout))
		e.f64s(a.I)
		return kindLoadCurve, e.b, true
	case *charlib.PropTable:
		e.str(a.CellName)
		e.str(a.State)
		e.str(a.NoisyPin)
		e.f64s(a.Heights)
		e.f64s(a.Widths)
		e.f64s(a.Loads)
		for _, tab := range [][][][]float64{a.Peak, a.Area} {
			for _, byW := range tab {
				for _, byL := range byW {
					for _, x := range byL {
						e.f64(x)
					}
				}
			}
		}
		e.f64(a.OutSign)
		e.f64(a.QuietOut)
		return kindPropTable, e.b, true
	case *nrc.Curve:
		e.str(a.CellName)
		e.str(a.State)
		e.str(a.Pin)
		e.f64(a.FailFrac)
		e.f64s(a.Widths)
		e.f64s(a.Heights)
		return kindNRCCurve, e.b, true
	case *thevenin.Driver:
		e.f64(a.V0)
		e.f64(a.V1)
		e.f64(a.T0)
		e.f64(a.Tr)
		e.f64(a.RTh)
		return kindThevenin, e.b, true
	}
	return 0, nil, false
}

// decodeArtefact is the inverse of encodeArtefact. It validates every
// shape invariant the in-memory consumers assume (grid sizes, table
// dimensions, monotonic axes are NOT re-derived — only structural
// consistency), and rejects trailing bytes, so a damaged entry can never
// come back as a plausible-looking table.
func decodeArtefact(tag byte, payload []byte) (any, error) {
	d := &dec{b: payload}
	var out any
	switch tag {
	case kindLoadCurve:
		lc := &charlib.LoadCurve{}
		lc.CellName = d.str()
		lc.State = d.str()
		lc.NoisyPin = d.str()
		lc.VinMin = d.f64()
		lc.VinMax = d.f64()
		lc.VoutMin = d.f64()
		lc.VoutMax = d.f64()
		lc.NVin = int(d.uvarint())
		lc.NVout = int(d.uvarint())
		lc.I = d.f64s()
		// The axis ceiling keeps NVin*NVout far from int overflow: crafted
		// counts near 2^32 would otherwise wrap the product onto len(I)
		// and pass a table whose indexing arithmetic panics downstream.
		const maxAxis = 1 << 16
		if d.err == nil && (lc.NVin < 2 || lc.NVout < 2 || lc.NVin > maxAxis || lc.NVout > maxAxis ||
			len(lc.I) != lc.NVin*lc.NVout) {
			d.fail("charstore: load curve has inconsistent shape %dx%d/%d", lc.NVin, lc.NVout, len(lc.I))
		}
		out = lc
	case kindPropTable:
		pt := &charlib.PropTable{}
		pt.CellName = d.str()
		pt.State = d.str()
		pt.NoisyPin = d.str()
		pt.Heights = d.f64s()
		pt.Widths = d.f64s()
		pt.Loads = d.f64s()
		if d.err == nil && (len(pt.Heights) == 0 || len(pt.Widths) == 0 || len(pt.Loads) == 0) {
			d.fail("charstore: prop table has an empty axis")
		}
		// Bound the table volume against the bytes actually remaining
		// BEFORE allocating: the per-axis guards in f64s bound each axis,
		// but their product times 8 must also fit, or crafted axes of a
		// few thousand elements each would make read3 allocate petabytes.
		// Division keeps the comparison overflow-free.
		if d.err == nil {
			rem := uint64(len(d.b)) / 8
			h, w, l := uint64(len(pt.Heights)), uint64(len(pt.Widths)), uint64(len(pt.Loads))
			if h > rem || w > rem/h || l > rem/(h*w) {
				d.fail("charstore: truncated prop table (%dx%dx%d for %d bytes)", h, w, l, len(d.b))
			}
		}
		read3 := func() [][][]float64 {
			if d.err != nil {
				return nil
			}
			tab := make([][][]float64, len(pt.Heights))
			for hi := range tab {
				tab[hi] = make([][]float64, len(pt.Widths))
				for wi := range tab[hi] {
					tab[hi][wi] = make([]float64, len(pt.Loads))
					for li := range tab[hi][wi] {
						tab[hi][wi][li] = d.f64()
					}
				}
			}
			return tab
		}
		pt.Peak = read3()
		pt.Area = read3()
		pt.OutSign = d.f64()
		pt.QuietOut = d.f64()
		out = pt
	case kindNRCCurve:
		c := &nrc.Curve{}
		c.CellName = d.str()
		c.State = d.str()
		c.Pin = d.str()
		c.FailFrac = d.f64()
		c.Widths = d.f64s()
		c.Heights = d.f64s()
		if d.err == nil && (len(c.Widths) == 0 || len(c.Widths) != len(c.Heights)) {
			d.fail("charstore: NRC curve has inconsistent shape %d/%d", len(c.Widths), len(c.Heights))
		}
		out = c
	case kindThevenin:
		drv := &thevenin.Driver{}
		drv.V0 = d.f64()
		drv.V1 = d.f64()
		drv.T0 = d.f64()
		drv.Tr = d.f64()
		drv.RTh = d.f64()
		out = drv
	default:
		return nil, fmt.Errorf("charstore: unknown artefact kind tag %d", tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("charstore: %d trailing bytes after %s payload", len(d.b), kindName(tag))
	}
	return out, nil
}

// artefactIdentity extracts the (cell, state, pin) identity embedded in a
// decoded artefact, which Export writes into each bundle entry's metadata.
// Thevenin drivers carry no identity of their own.
func artefactIdentity(v any) (cellName, state, pin string) {
	switch a := v.(type) {
	case *charlib.LoadCurve:
		return a.CellName, a.State, a.NoisyPin
	case *charlib.PropTable:
		return a.CellName, a.State, a.NoisyPin
	case *nrc.Curve:
		return a.CellName, a.State, a.Pin
	}
	return "", "", ""
}

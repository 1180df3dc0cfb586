package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"stanoise/internal/device"
	"stanoise/internal/wave"
)

// ParseError reports a netlist syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("netlist line %d: %s", e.Line, e.Msg)
}

// Parse reads a SPICE-subset netlist:
//
//   - comment
//     R<name> a b <value>
//     C<name> a b <value>
//     V<name> p n DC <value>
//     V<name> p n PWL(<t1> <v1> <t2> <v2> ...)
//     V<name> p n RAMP(<v0> <v1> <t0> <tr>)
//     I<name> p n DC <value>
//     M<name> d g s <model> W=<value> L=<value> [nonlinear-cap params]
//     .model <name> NMOS|PMOS (KP=<v> VT0=<v> LAMBDA=<v>)
//     .end
//
// The optional M-line nonlinear-cap parameters carry the NLMOS tanh
// gate-charge model per instance (see device.CapParams): CGDCP/CGDCO/
// CGDP0/CGDP1 for the gate-drain cap and CGSCP/CGSCO/CGSP0/CGSP1 for the
// gate-source cap. Cp and Co must be non-negative and, like every value,
// finite; absent parameters mean constant (or no) gate caps.
//
// Engineering suffixes (f p n u m k meg g t) are accepted on all numbers.
// Model cards may appear after the devices that reference them.
func Parse(r io.Reader) (*Circuit, error) {
	ckt := New()
	type pendingMOS struct {
		line              int
		name, d, g, s, mo string
		w, l              float64
		cgd, cgs          device.CapParams
	}
	var pending []pendingMOS
	models := map[string]device.Params{}

	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		fields := tokenize(line)
		if len(fields) == 0 {
			continue
		}
		head := strings.ToUpper(fields[0])
		fail := func(format string, args ...any) error {
			return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
		}
		switch {
		case head == ".END":
			goto done
		case head == ".TITLE":
			// informational only
		case head == ".MODEL":
			if len(fields) < 3 {
				return nil, fail(".model needs a name and a type")
			}
			p, err := parseModel(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			models[strings.ToLower(fields[1])] = p
		case head[0] == 'R':
			if len(fields) != 4 {
				return nil, fail("resistor needs 2 nodes and a value")
			}
			v, err := ParseValue(fields[3])
			if err != nil {
				return nil, fail("bad resistance %q: %v", fields[3], err)
			}
			if v <= 0 {
				return nil, fail("non-positive resistance %g", v)
			}
			ckt.AddR(fields[0], fields[1], fields[2], v)
		case head[0] == 'C':
			if len(fields) != 4 {
				return nil, fail("capacitor needs 2 nodes and a value")
			}
			v, err := ParseValue(fields[3])
			if err != nil {
				return nil, fail("bad capacitance %q: %v", fields[3], err)
			}
			if v < 0 {
				return nil, fail("negative capacitance %g", v)
			}
			ckt.AddC(fields[0], fields[1], fields[2], v)
		case head[0] == 'V', head[0] == 'I':
			if len(fields) < 4 {
				return nil, fail("source needs 2 nodes and a value spec")
			}
			w, err := parseSource(fields[3:])
			if err != nil {
				return nil, fail("%v", err)
			}
			if head[0] == 'V' {
				ckt.AddV(fields[0], fields[1], fields[2], w)
			} else {
				ckt.AddI(fields[0], fields[1], fields[2], w)
			}
		case head[0] == 'M':
			if len(fields) < 5 {
				return nil, fail("mosfet needs d g s and a model")
			}
			pm := pendingMOS{line: lineNo, name: fields[0],
				d: fields[1], g: fields[2], s: fields[3], mo: strings.ToLower(fields[4])}
			for _, f := range fields[5:] {
				k, v, ok := strings.Cut(strings.ToUpper(f), "=")
				if !ok {
					return nil, fail("bad mosfet parameter %q", f)
				}
				val, err := ParseValue(v)
				if err != nil {
					return nil, fail("bad mosfet parameter %q: %v", f, err)
				}
				switch k {
				case "W":
					pm.w = val
				case "L":
					pm.l = val
				case "CGDCP":
					pm.cgd.Cp = val
				case "CGDCO":
					pm.cgd.Co = val
				case "CGDP0":
					pm.cgd.P0 = val
				case "CGDP1":
					pm.cgd.P1 = val
				case "CGSCP":
					pm.cgs.Cp = val
				case "CGSCO":
					pm.cgs.Co = val
				case "CGSP0":
					pm.cgs.P0 = val
				case "CGSP1":
					pm.cgs.P1 = val
				default:
					return nil, fail("unknown mosfet parameter %q", k)
				}
			}
			if pm.w <= 0 || pm.l <= 0 {
				return nil, fail("mosfet %s needs positive W and L", fields[0])
			}
			if pm.cgd.Cp < 0 || pm.cgd.Co < 0 || pm.cgs.Cp < 0 || pm.cgs.Co < 0 {
				return nil, fail("mosfet %s has negative gate capacitance", fields[0])
			}
			pending = append(pending, pm)
		default:
			return nil, fail("unknown element %q", fields[0])
		}
	}
done:
	if err := scan.Err(); err != nil {
		return nil, err
	}
	for _, pm := range pending {
		model, ok := models[pm.mo]
		if !ok {
			return nil, &ParseError{Line: pm.line, Msg: fmt.Sprintf("mosfet %s references unknown model %q", pm.name, pm.mo)}
		}
		p := model
		p.W, p.L = pm.w, pm.l
		p.CGD, p.CGS = pm.cgd, pm.cgs
		ckt.AddM(pm.name, pm.d, pm.g, pm.s, p)
	}
	return ckt, nil
}

// tokenize splits a line into fields, keeping parenthesised groups (e.g.
// "PWL(0 0 1n 1)") as single tokens.
func tokenize(line string) []string {
	var out []string
	depth := 0
	cur := strings.Builder{}
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t') && depth == 0:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// parseModel handles ".model name NMOS|PMOS (K=V ...)" with the name and
// following fields passed in.
func parseModel(fields []string) (device.Params, error) {
	var p device.Params
	if len(fields) < 2 {
		return p, fmt.Errorf(".model needs a type")
	}
	switch strings.ToUpper(fields[1]) {
	case "NMOS":
		p.Kind = device.NMOS
	case "PMOS":
		p.Kind = device.PMOS
	default:
		return p, fmt.Errorf("unknown model type %q", fields[1])
	}
	params := strings.Join(fields[2:], " ")
	params = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(params), ")"), "(")
	for _, kv := range strings.Fields(params) {
		k, v, ok := strings.Cut(strings.ToUpper(kv), "=")
		if !ok {
			return p, fmt.Errorf("bad model parameter %q", kv)
		}
		val, err := ParseValue(v)
		if err != nil {
			return p, fmt.Errorf("bad model parameter %q: %v", kv, err)
		}
		switch k {
		case "KP":
			p.KP = val
		case "VT0", "VTO":
			p.VT0 = val
		case "LAMBDA":
			p.Lambda = val
		default:
			return p, fmt.Errorf("unknown model parameter %q", k)
		}
	}
	if p.KP <= 0 {
		return p, fmt.Errorf("model needs positive KP")
	}
	return p, nil
}

// parseSource handles "DC v", "PWL(...)" and "RAMP(v0 v1 t0 tr)".
func parseSource(fields []string) (*wave.Waveform, error) {
	spec := strings.Join(fields, " ")
	upper := strings.ToUpper(spec)
	switch {
	case strings.HasPrefix(upper, "DC"):
		rest := strings.TrimSpace(spec[2:])
		v, err := ParseValue(rest)
		if err != nil {
			return nil, fmt.Errorf("bad DC value %q: %v", rest, err)
		}
		return wave.Constant(v), nil
	case strings.HasPrefix(upper, "PWL"):
		vals, err := parseParenValues(spec[3:])
		if err != nil {
			return nil, err
		}
		if len(vals) < 4 || len(vals)%2 != 0 {
			return nil, fmt.Errorf("PWL needs an even number (>=4) of values")
		}
		ts := make([]float64, 0, len(vals)/2)
		vs := make([]float64, 0, len(vals)/2)
		for i := 0; i < len(vals); i += 2 {
			ts = append(ts, vals[i])
			vs = append(vs, vals[i+1])
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				return nil, fmt.Errorf("PWL times must be strictly increasing")
			}
		}
		return wave.FromPoints(ts, vs), nil
	case strings.HasPrefix(upper, "RAMP"):
		vals, err := parseParenValues(spec[4:])
		if err != nil {
			return nil, err
		}
		if len(vals) != 4 {
			return nil, fmt.Errorf("RAMP needs (v0 v1 t0 tr)")
		}
		if vals[3] <= 0 {
			return nil, fmt.Errorf("RAMP transition time must be positive")
		}
		return wave.SaturatedRamp(vals[0], vals[1], vals[2], vals[3]), nil
	default:
		// Bare value: treat as DC.
		v, err := ParseValue(spec)
		if err != nil {
			return nil, fmt.Errorf("unknown source spec %q", spec)
		}
		return wave.Constant(v), nil
	}
}

func parseParenValues(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	var out []float64
	for _, f := range strings.Fields(strings.ReplaceAll(s, ",", " ")) {
		v, err := ParseValue(f)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseValue parses a number with an optional SPICE engineering suffix
// ("1.5p", "2meg"): the netlist's one number grammar. The value must be a
// single number and finite after scaling.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		mult, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(s, "f"):
		mult, s = 1e-15, s[:len(s)-1]
	case strings.HasSuffix(s, "p"):
		mult, s = 1e-12, s[:len(s)-1]
	case strings.HasSuffix(s, "n"):
		mult, s = 1e-9, s[:len(s)-1]
	case strings.HasSuffix(s, "u"):
		mult, s = 1e-6, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1e-3, s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	case strings.HasSuffix(s, "t"):
		mult, s = 1e12, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	v *= mult
	// ParseFloat happily accepts "nan" and "inf", and a huge mantissa can
	// overflow to +Inf once the engineering suffix is applied ("1e305k") —
	// either would silently poison every matrix stamp downstream, so
	// element values must be finite after scaling.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value")
	}
	return v, nil
}

package circuit

import (
	"math"
	"strings"
	"testing"

	"stanoise/internal/device"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"100", 100}, {"1k", 1000}, {"2.5meg", 2.5e6}, {"3g", 3e9},
		{"10u", 1e-5}, {"5m", 5e-3}, {"20f", 20e-15}, {"1.5p", 1.5e-12},
		{"7n", 7e-9}, {"2t", 2e12}, {"-0.38", -0.38},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseValue("xyz"); err == nil {
		t.Error("garbage value accepted")
	}
}

const demoNetlist = `
* demo RC + inverter
.title demo
Vdd vdd 0 DC 1.2
Vin in 0 PWL(0 0 100p 0 200p 1.2 1n 1.2)
R1 in mid 1k
C1 mid 0 100f
Mp out in vdd pch W=2.6u L=0.13u
Mn out in 0 nch W=1.3u L=0.13u
Cl out 0 20f
.model nch NMOS (KP=340u VT0=0.35 LAMBDA=0.15)
.model pch PMOS (KP=90u VT0=-0.38 LAMBDA=0.2)
.end
`

func TestParseNetlist(t *testing.T) {
	ckt, err := Parse(strings.NewReader(demoNetlist))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Resistors) != 1 || len(ckt.Capacitors) != 2 || len(ckt.VSources) != 2 || len(ckt.Mosfets) != 2 {
		t.Fatalf("element counts: R=%d C=%d V=%d M=%d",
			len(ckt.Resistors), len(ckt.Capacitors), len(ckt.VSources), len(ckt.Mosfets))
	}
	if ckt.Resistors[0].R != 1000 {
		t.Errorf("R1 = %v", ckt.Resistors[0].R)
	}
	// PWL source midpoint.
	if got := ckt.VSources[1].W.At(150e-12); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("PWL at 150ps = %v", got)
	}
	// Model resolution (declared after use).
	var nmos, pmos *Mosfet
	for i := range ckt.Mosfets {
		if ckt.Mosfets[i].P.Kind == device.NMOS {
			nmos = &ckt.Mosfets[i]
		} else {
			pmos = &ckt.Mosfets[i]
		}
	}
	if nmos == nil || pmos == nil {
		t.Fatal("polarities not resolved")
	}
	if math.Abs(nmos.P.KP-340e-6) > 1e-12 || nmos.P.VT0 != 0.35 {
		t.Errorf("nmos params %+v", nmos.P)
	}
	if math.Abs(pmos.P.W-2.6e-6) > 1e-15 {
		t.Errorf("pmos W = %v", pmos.P.W)
	}
}

func TestParseRAMP(t *testing.T) {
	ckt, err := Parse(strings.NewReader("V1 a 0 RAMP(1.2 0 100p 50p)\nR1 a 0 1k\n.end\n"))
	if err != nil {
		t.Fatal(err)
	}
	w := ckt.VSources[0].W
	if w.At(0) != 1.2 || w.At(1e-9) != 0 {
		t.Errorf("ramp endpoints %v %v", w.At(0), w.At(1e-9))
	}
	if got := w.At(125e-12); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("ramp midpoint = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"R1 a b\n",                       // missing value
		"R1 a b -5\n",                    // negative resistance
		"C1 a b -1f\n",                   // negative capacitance
		"Q1 a b c\n",                     // unknown element
		"M1 d g s nomodel W=1u L=0.1u\n", // unknown model
		"M1 d g s m W=1u\n.model m NMOS (KP=1u)\n",     // missing L
		"V1 a 0 PWL(0 0 0 1)\n",                        // non-increasing PWL
		"V1 a 0 RAMP(0 1 0 0)\n",                       // zero ramp time
		".model m NMOS (KP=0)\nM1 d g s m W=1u L=1u\n", // bad KP
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad netlist: %q", src)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse(strings.NewReader("R1 a b 1k\nR2 a b\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("message %q", pe.Error())
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	ckt, err := Parse(strings.NewReader(demoNetlist))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ckt.Write(&b, "round trip"); err != nil {
		t.Fatal(err)
	}
	ckt2, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, b.String())
	}
	if ckt2.ElementCount() != ckt.ElementCount() {
		t.Errorf("element count %d != %d", ckt2.ElementCount(), ckt.ElementCount())
	}
	// Waveforms survive.
	if got := ckt2.VSources[1].W.At(150e-12); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("PWL lost in round trip: %v", got)
	}
}

func TestTokenizeParens(t *testing.T) {
	toks := tokenize("V1 a 0 PWL(0 0 1n 1.2)")
	if len(toks) != 4 || toks[3] != "PWL(0 0 1n 1.2)" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestCircuitNodeBasics(t *testing.T) {
	c := New()
	if c.Node("0") != Ground || c.Node("gnd") != Ground {
		t.Error("ground aliases wrong")
	}
	a := c.Node("a")
	if again := c.Node("a"); again != a {
		t.Error("node not deduplicated")
	}
	if c.NodeName(a) != "a" || c.NodeName(Ground) != "0" {
		t.Error("NodeName wrong")
	}
	if _, ok := c.LookupNode("zz"); ok {
		t.Error("phantom node")
	}
	if c.VSourceIndex("nope") != -1 {
		t.Error("phantom vsource")
	}
}

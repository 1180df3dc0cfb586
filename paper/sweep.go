package paper

import (
	"context"
	"fmt"
	"math"
	"strings"

	"stanoise/internal/core"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// SweepCase describes one cluster of the accuracy sweep (claim C1).
type SweepCase struct {
	Name       string
	TechName   string
	VictimKind string
	VictimPin  string
	NumAgg     int
	LengthUm   float64
}

// SweepCases enumerates the victim/aggressor/technology/length
// combinations backing the paper's statement that the approach "has been
// tested on several noise clusters in 0.13µm and 90nm technology … and the
// error was always within few percents".
func SweepCases() []SweepCase {
	var cases []SweepCase
	for _, tn := range []string{"cmos130", "cmos090"} {
		for _, vc := range []struct{ kind, pin string }{
			{"NAND2", "B"}, {"NOR2", "A"}, {"INV", "A"}, {"AOI21", "C"},
		} {
			for _, nAgg := range []int{1, 2} {
				for _, length := range []float64{300, 500} {
					cases = append(cases, SweepCase{
						Name: fmt.Sprintf("%s/%s/%dagg/%.0fum",
							strings.TrimPrefix(tn, "cmos"), vc.kind, nAgg, length),
						TechName: tn, VictimKind: vc.kind, VictimPin: vc.pin,
						NumAgg: nAgg, LengthUm: length,
					})
				}
			}
		}
	}
	return cases
}

// BuildSweepCluster constructs the cluster for one sweep case. The victim
// is placed so every aggressor couples to it directly (victim in the middle
// for two aggressors).
func BuildSweepCluster(sc SweepCase, q Quality) (*core.Cluster, error) {
	tt, err := tech.ByName(sc.TechName)
	if err != nil {
		return nil, err
	}
	var aggs []sna.AggressorSpec
	switch sc.NumAgg {
	case 1:
		aggs = []sna.AggressorSpec{invAggressor("right", sc.LengthUm)}
	case 2:
		aggs = []sna.AggressorSpec{invAggressor("left", sc.LengthUm), invAggressor("right", sc.LengthUm)}
	default:
		return nil, fmt.Errorf("paper: sweep supports 1 or 2 aggressors, got %d", sc.NumAgg)
	}
	return q.cluster(sc.TechName, sna.ClusterSpec{
		Name: sc.Name,
		// A solidly propagating glitch, matching the regime of the
		// paper's evaluation (total noise a large fraction of VDD).
		// Marginal near-threshold glitches are a documented hard case
		// for any DC-table macromodel — see EXPERIMENTS.md.
		Victim: sna.VictimSpec{
			Cell: sc.VictimKind, NoisyPin: sc.VictimPin,
			GlitchHeightV: 0.62 * tt.VDD, GlitchWidthPs: 450, LengthUm: sc.LengthUm,
		},
		Aggressors: aggs,
	})
}

// RunSweep regenerates claim C1: macromodel and superposition accuracy over
// the cluster sweep. With maxCases > 0 only the first maxCases are run.
func RunSweep(ctx context.Context, q Quality, maxCases int) (*Experiment, error) {
	cases := SweepCases()
	if maxCases > 0 && maxCases < len(cases) {
		cases = cases[:maxCases]
	}
	exp := &Experiment{
		ID:    "sweep",
		Title: "Claim C1: macromodel accuracy across noise clusters in 0.13um and 90nm",
		Notes: []string{
			"paper: \"accuracy evaluated against circuit simulations, and the error was always within few percents\"",
		},
	}
	worstMac := 0.0
	for _, sc := range cases {
		c, err := BuildSweepCluster(sc, q)
		if err != nil {
			return nil, fmt.Errorf("paper: sweep case %s: %w", sc.Name, err)
		}
		p, err := prepare(ctx, c, q, false)
		if err != nil {
			return nil, fmt.Errorf("paper: sweep case %s: %w", sc.Name, err)
		}
		golden, err := p.eval(ctx, core.Golden)
		if err != nil {
			return nil, fmt.Errorf("paper: sweep case %s golden: %w", sc.Name, err)
		}
		mac, err := p.eval(ctx, core.Macromodel)
		if err != nil {
			return nil, fmt.Errorf("paper: sweep case %s macromodel: %w", sc.Name, err)
		}
		row := evalRow(sc.Name, mac, golden)
		exp.Rows = append(exp.Rows, row)
		if a := math.Abs(row.PeakErrPct); a > worstMac {
			worstMac = a
		}
	}
	exp.Notes = append(exp.Notes,
		fmt.Sprintf("worst-case macromodel peak error across %d clusters: %.1f%%", len(cases), worstMac))
	return exp, nil
}

// Fig1Description renders the assembled noise-cluster macromodel of the
// Table 2 configuration — the circuit of the paper's Figure 1 — as an
// annotated textual schematic plus the element values this implementation
// derived.
func Fig1Description(ctx context.Context, q Quality) (string, error) {
	c, err := Table2Cluster(q)
	if err != nil {
		return "", err
	}
	mopts := q.modelOptions()
	mopts.SkipProp = true
	models, err := c.BuildModels(ctx, mopts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(`Figure 1: noise cluster macromodel (as constructed for the Table 2 cluster)

          VTH1 --/\/\--+                +--/\/\-- VTH2
          (ramp)  RTH1 |                | RTH2  (ramp)
                       |                |
                  [DP_agg1]        [DP_agg2]
                       |                |
               +---------------------------------+
   Vnoise      |                                  |
     |         |    coupled S-model (reduced      |
     v         |    moment-matching RC macro-     |
  [Vin]--> IDC |    model of the interconnect)    |
  f(Vin,Vout)  |                                  |
     |         +---------------------------------+
  [DP_vic]-----+        |                |
                   [recv_vic]       (receiver pin caps
                    Vnoise out       inside the S-model)

`)
	fmt.Fprintf(&b, "victim driver  : %s state %s, VCCS table I_DC = f(V_%s, V_out), %dx%d grid\n",
		models.LC.CellName, models.LC.State, c.Victim.NoisyPin, models.LC.NVin, models.LC.NVout)
	fmt.Fprintf(&b, "input noise    : triangular glitch %.2f V x %.0f ps at the victim driver input\n",
		c.Victim.Glitch.Height, c.Victim.Glitch.Width*1e12)
	fmt.Fprintf(&b, "holding R      : %.0f ohm at the quiet point (for the linear baselines)\n",
		1/models.HoldG)
	for i, d := range models.Agg {
		fmt.Fprintf(&b, "aggressor %d    : VTH %s ramp %.2f->%.2f V, Tr=%.0f ps, RTH=%.0f ohm\n",
			i+1, models.Red.Ports[models.AggPorts[i]], d.V0, d.V1, d.Tr*1e12, d.RTh)
	}
	fmt.Fprintf(&b, "S-model        : %d RC nodes reduced to q=%d states, ports %v\n",
		c.Bus.Segments*len(c.Bus.Lines)+len(c.Bus.Lines), models.Red.Q, models.Red.Ports)
	fmt.Fprintf(&b, "receiver caps  : victim %.2f fF (inside the reduced model)\n",
		c.Victim.Receiver.InputCap(c.Victim.ReceiverPin)*1e15)
	in := victimInputPeek(c)
	fmt.Fprintf(&b, "glitch metrics : peak %.2f V, area %.0f V*ps at the victim input\n",
		in.Peak, in.AreaVps())
	return b.String(), nil
}

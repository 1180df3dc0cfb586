// Package sna implements the full static-noise-analysis flow on a design
// description: cluster construction from net geometry, pre-characterised
// model reuse, worst-case evaluation with a selectable victim-driver model,
// and NRC screening of every victim receiver — the sign-off step the
// paper's introduction describes.
package sna

import (
	"encoding/json"
	"fmt"
	"io"

	"stanoise/internal/cell"
	"stanoise/internal/core"
	"stanoise/internal/interconnect"
	"stanoise/internal/tech"
)

// Design is the top-level JSON design description: a set of noise clusters
// extracted from a routed design, with common technology and layer.
type Design struct {
	Name     string        `json:"name"`
	Tech     string        `json:"tech"`     // "cmos130" or "cmos090"
	Layer    string        `json:"layer"`    // routing layer of the clusters, e.g. "M4"
	Segments int           `json:"segments"` // RC segments per wire (default 15)
	Clusters []ClusterSpec `json:"clusters"`
}

// ClusterSpec describes one victim net and its coupled aggressors.
// MutexGroups and Implications are optional logic-correlation constraints
// consumed by the feasibility filter (Options.Feasibility); they reference
// aggressors by name (or the positional default "agg<i>") and are ignored
// by the classical pessimistic flow.
type ClusterSpec struct {
	Name       string          `json:"name"`
	Victim     VictimSpec      `json:"victim"`
	Aggressors []AggressorSpec `json:"aggressors"`

	MutexGroups  [][]string        `json:"mutex_groups,omitempty"`
	Implications []ImplicationSpec `json:"implications,omitempty"`
}

// VictimSpec is the JSON form of a victim net.
type VictimSpec struct {
	Cell     string          `json:"cell"`
	Drive    int             `json:"drive"`
	State    map[string]bool `json:"state"`
	NoisyPin string          `json:"noisy_pin"`

	GlitchHeightV float64 `json:"glitch_height_v"`
	GlitchWidthPs float64 `json:"glitch_width_ps"`

	LengthUm float64 `json:"length_um"`

	Receiver      string `json:"receiver"`
	ReceiverDrive int    `json:"receiver_drive"`
	ReceiverPin   string `json:"receiver_pin"`
}

// AggressorSpec is the JSON form of one coupled aggressor. Name and Window
// are optional feasibility metadata: Name labels the aggressor for
// constraint references (default "agg<i>" by position) and Window bounds
// when its input transition may start. Both are ignored unless the
// feasibility filter is enabled.
type AggressorSpec struct {
	Name      string          `json:"agg_name,omitempty"`
	Cell      string          `json:"cell"`
	Drive     int             `json:"drive"`
	FromState map[string]bool `json:"from_state"`
	SwitchPin string          `json:"switch_pin"`
	SlewPs    float64         `json:"slew_ps"`

	LengthUm      float64 `json:"length_um"`
	SpacingFactor float64 `json:"spacing_factor"` // multiple of min spacing; default 1
	Side          string  `json:"side"`           // "left" or "right" of the victim

	Receiver      string `json:"receiver"`
	ReceiverDrive int    `json:"receiver_drive"`
	ReceiverPin   string `json:"receiver_pin"`

	Window *WindowSpec `json:"window,omitempty"`
}

// WindowSpec is the JSON form of an aggressor switching window: the input
// transition of the aggressor driver may start no earlier than EarlyPs and
// no later than LatePs (picoseconds from analysis time zero). A missing
// window means the aggressor can switch at any time from zero on — exactly
// the pessimistic assumption of the classical flow.
type WindowSpec struct {
	EarlyPs float64 `json:"early_ps"`
	LatePs  float64 `json:"late_ps"`
}

// ImplicationSpec is the JSON form of a logic implication between
// aggressors: whenever If switches in a scenario, Then must switch too
// (e.g. a buffered copy of the same signal). Aggressors are referenced by
// name.
type ImplicationSpec struct {
	If   string `json:"if"`
	Then string `json:"then"`
}

// ParseDesign reads a Design from JSON.
func ParseDesign(r io.Reader) (*Design, error) {
	var d Design
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("sna: parsing design: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// WriteJSON serialises the design.
func (d *Design) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Validate checks the design structurally (cells exist, pins present,
// sides are legal). Electrical validation happens when clusters are built.
func (d *Design) Validate() error {
	if _, err := tech.ByName(d.Tech); err != nil {
		return err
	}
	if d.Layer == "" {
		return fmt.Errorf("sna: design %q needs a layer", d.Name)
	}
	// An empty design is valid and trivially passes analysis: a service
	// partitioning a large design must be able to hand an analyzer an empty
	// shard without special-casing it.
	for _, cs := range d.Clusters {
		if cs.Name == "" {
			return fmt.Errorf("sna: design %q has an unnamed cluster", d.Name)
		}
		for i, a := range cs.Aggressors {
			if a.Side != "" && a.Side != "left" && a.Side != "right" {
				return fmt.Errorf("sna: cluster %s aggressor %d: bad side %q", cs.Name, i, a.Side)
			}
		}
		if err := cs.validateFeasibility(); err != nil {
			return err
		}
	}
	return nil
}

// buildCell instantiates a cell by library name with a default drive of 1.
func buildCell(t *tech.Tech, kind string, drive int) (*cell.Cell, error) {
	if drive <= 0 {
		drive = 1
	}
	return cell.New(t, kind, drive)
}

func toState(m map[string]bool) cell.State {
	st := make(cell.State, len(m))
	for k, v := range m {
		st[k] = v
	}
	return st
}

// BuildCluster converts a ClusterSpec into an evaluable core.Cluster on the
// design's nominal technology card. Aggressors marked "left" are placed
// above the victim in declaration order, "right" (or unspecified) below, so
// coupling adjacency reflects the described geometry.
func (d *Design) BuildCluster(cs ClusterSpec) (*core.Cluster, error) {
	return d.buildCluster(cs, tech.Corner{}, false)
}

// buildCluster is BuildCluster on a derived card: the technology card at
// corner (tech.Corner.Apply) and then, with nlcaps, with the NLMOS
// nonlinear gate-charge model (tech.Tech.WithNonlinearCaps) — the order
// the two commuting derivations guarantee. Every cell in the cluster, and
// so every characterisation artefact and cache key downstream, carries the
// derived card; wire parasitics come from the base card (corners model
// device and supply variation, not layout). A nominal corner without
// nlcaps builds exactly what BuildCluster builds.
func (d *Design) buildCluster(cs ClusterSpec, corner tech.Corner, nlcaps bool) (*core.Cluster, error) {
	t, err := tech.ByName(d.Tech)
	if err != nil {
		return nil, err
	}
	t = corner.Apply(t)
	if nlcaps {
		t = t.WithNonlinearCaps()
	}
	segments := d.Segments
	if segments <= 0 {
		segments = 15
	}
	vicCell, err := buildCell(t, cs.Victim.Cell, cs.Victim.Drive)
	if err != nil {
		return nil, fmt.Errorf("sna: cluster %s victim: %w", cs.Name, err)
	}
	var vicState cell.State
	if len(cs.Victim.State) > 0 {
		vicState = toState(cs.Victim.State)
	} else {
		vicState, err = vicCell.SensitizedState(cs.Victim.NoisyPin, true)
		if err != nil {
			return nil, fmt.Errorf("sna: cluster %s: %w", cs.Name, err)
		}
	}

	var left, right []int
	for i, a := range cs.Aggressors {
		if a.Side == "left" {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	var lines []interconnect.LineSpec
	lineOf := make(map[int]int) // aggressor index → line index
	for _, ai := range left {
		a := cs.Aggressors[ai]
		lineOf[ai] = len(lines)
		lines = append(lines, interconnect.LineSpec{
			Name: fmt.Sprintf("%s_agg%d", cs.Name, ai), LengthUm: a.LengthUm,
			SpacingFactor: spacingOr1(a.SpacingFactor),
		})
	}
	vicLine := len(lines)
	lines = append(lines, interconnect.LineSpec{
		Name: cs.Name + "_vic", LengthUm: cs.Victim.LengthUm,
	})
	for _, ai := range right {
		a := cs.Aggressors[ai]
		// The spacing between the victim and the first right aggressor is
		// carried by the victim's line spec.
		lines[len(lines)-1].SpacingFactor = spacingOr1(a.SpacingFactor)
		lineOf[ai] = len(lines)
		lines = append(lines, interconnect.LineSpec{
			Name: fmt.Sprintf("%s_agg%d", cs.Name, ai), LengthUm: a.LengthUm,
		})
	}
	bus, err := interconnect.NewBus(t, d.Layer, segments, lines...)
	if err != nil {
		return nil, fmt.Errorf("sna: cluster %s: %w", cs.Name, err)
	}

	recvCell, recvPin, err := receiverOf(t, cs.Victim.Receiver, cs.Victim.ReceiverDrive, cs.Victim.ReceiverPin)
	if err != nil {
		return nil, fmt.Errorf("sna: cluster %s victim receiver: %w", cs.Name, err)
	}
	cl := &core.Cluster{
		Tech: t,
		Bus:  bus,
		Victim: core.VictimSpec{
			Cell: vicCell, State: vicState, NoisyPin: cs.Victim.NoisyPin,
			Glitch: core.GlitchSpec{
				Height: cs.Victim.GlitchHeightV,
				Width:  cs.Victim.GlitchWidthPs * 1e-12,
				Start:  150e-12,
			},
			Line:     vicLine,
			Receiver: recvCell, ReceiverPin: recvPin,
		},
	}
	for i, a := range cs.Aggressors {
		aggCell, err := buildCell(t, a.Cell, a.Drive)
		if err != nil {
			return nil, fmt.Errorf("sna: cluster %s aggressor %d: %w", cs.Name, i, err)
		}
		aggRecv, aggRecvPin, err := receiverOf(t, a.Receiver, a.ReceiverDrive, a.ReceiverPin)
		if err != nil {
			return nil, fmt.Errorf("sna: cluster %s aggressor %d receiver: %w", cs.Name, i, err)
		}
		slew := a.SlewPs * 1e-12
		cl.Aggressors = append(cl.Aggressors, core.AggressorSpec{
			Cell: aggCell, FromState: toState(a.FromState), SwitchPin: a.SwitchPin,
			InputSlew: slew, Line: lineOf[i],
			Receiver: aggRecv, ReceiverPin: aggRecvPin,
		})
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("sna: cluster %s: %w", cs.Name, err)
	}
	return cl, nil
}

func spacingOr1(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

func receiverOf(t *tech.Tech, kind string, drive int, pin string) (*cell.Cell, string, error) {
	if kind == "" {
		kind = "INV"
		if drive <= 0 {
			drive = 2
		}
	}
	c, err := buildCell(t, kind, drive)
	if err != nil {
		return nil, "", err
	}
	if pin == "" {
		pin = c.Inputs()[0]
	}
	return c, pin, nil
}

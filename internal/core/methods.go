package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/thevenin"
	"stanoise/internal/wave"
)

// Method selects how the total noise on a cluster is computed.
type Method int

const (
	// Golden is the full transistor-level simulation (ELDO stand-in).
	Golden Method = iota
	// Superposition is the traditional linear flow: holding-resistance
	// injected noise plus table-propagated noise, waveform-summed with
	// peaks aligned.
	Superposition
	// Zolotov is the iterative pulsed-Thevenin victim model of ref [4].
	Zolotov
	// Macromodel is the paper's non-linear VCCS approach.
	Macromodel
)

// String returns the stable lower-case method name used in reports, JSON
// and the -method CLI flags.
func (m Method) String() string {
	switch m {
	case Golden:
		return "golden"
	case Superposition:
		return "superposition"
	case Zolotov:
		return "zolotov"
	case Macromodel:
		return "macromodel"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod converts a method name ("macromodel", "superposition",
// "zolotov", "golden") into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "golden":
		return Golden, nil
	case "superposition":
		return Superposition, nil
	case "zolotov":
		return Zolotov, nil
	case "macromodel":
		return Macromodel, nil
	}
	return 0, fmt.Errorf("core: unknown method %q", s)
}

// MarshalJSON serialises the method as its stable name, not its internal
// enum value, so JSON reports survive reordering of the constants.
func (m Method) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON accepts the method name.
func (m *Method) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseMethod(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Evaluation is the outcome of evaluating a cluster with one method.
type Evaluation struct {
	Method Method
	// DP is the waveform at the victim driving point (the paper's
	// measurement node), Recv at the victim receiver input.
	DP, Recv *wave.Waveform
	// Metrics and RecvMetrics are the glitch metrics at those two nodes.
	Metrics     wave.NoiseMetrics
	RecvMetrics wave.NoiseMetrics
	// Elapsed is the analysis (solve) time, excluding pre-characterisation.
	Elapsed time.Duration
}

// EvalOptions tunes cluster evaluation.
type EvalOptions struct {
	// Dt is the timestep of every engine; default 1 ps. It must be at
	// most a tenth of the cluster's shortest input edge: the smallest
	// slew among the aggressors that switch, or half the glitch width
	// when the glitch has height. A longer step is an *sim.OptionsError.
	Dt float64
	// tstop is the end time of every run, Cluster.EventHorizon() at
	// normalize. AlignWorstCase normalizes once, so its probes keep the
	// horizon of the pre-alignment offsets.
	tstop float64
	// ZolotovPasses is the number of engine passes of the iterative
	// pulsed-Thevenin victim model (ref [4]): pass 1 uses the driver-alone
	// pulse, each further pass rebuilds the source at the coupled
	// response. Default 2 — the practical operating point whose error
	// magnitude matches what the paper quotes for [4]. A single pass is
	// markedly worse, which is exactly why that approach iterates; more
	// passes converge toward the non-linear result (see the ablation).
	ZolotovPasses int
	// Miller adds the input-output feedthrough capacitor of the victim
	// driver to the macromodel — an extension beyond the paper's pure
	// DC-table formulation (see the ablation benchmarks).
	Miller bool

	// forceFullHorizon runs the alignment search's peak-only engine runs
	// and its driver-alone run to tstop and measures the recorded
	// waveform, as before they stopped once their peak was decided;
	// observe, when non-nil, sees the peak and peak time of each of those
	// engine runs in order. Test hooks.
	forceFullHorizon bool
	observe          func(peak, tPeak float64)
	// observeDriver, when non-nil, sees the alignment's driver-alone run:
	// its peak and peak time, the steps it took, and its certificate (nil
	// under forceFullHorizon). Test hook.
	observeDriver func(peak, tPeak float64, steps int, cert *sim.Certificate)
	// noResume keeps every probe of the alignment search at step 1, as
	// before probes resumed from the best run's trace. Test hook.
	noResume bool
}

// normalize fills the defaults and applies the step rule (CheckStep).
func (o EvalOptions) normalize(c *Cluster) (EvalOptions, error) {
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	if err := c.CheckStep(o.Dt); err != nil {
		return o, err
	}
	if o.tstop <= 0 {
		o.tstop = c.EventHorizon()
	}
	if o.ZolotovPasses <= 0 {
		o.ZolotovPasses = 2
	}
	return o, nil
}

// CheckStep is the step rule of every evaluation: a step dt (≤ 0 selects
// EvalOptions' default, 1 ps) longer than a tenth of the cluster's
// shortest input edge (see shortestEdge) is an *sim.OptionsError on Dt.
// Such a step cuts the edge into a few samples and under-reads its noise,
// and the net would be signed off on it. A flow checks it before it
// characterises the cluster, so a step every cluster fails builds nothing.
func (c *Cluster) CheckStep(dt float64) error {
	if dt <= 0 {
		dt = 1e-12
	}
	if edge := c.shortestEdge(); dt > edge/10 {
		return &sim.OptionsError{Field: "Dt", Value: dt, Want: fmt.Sprintf("at most %g, a tenth of the cluster's shortest input edge", edge/10)}
	}
	return nil
}

// Evaluate computes the total noise with the chosen method. Models must
// come from BuildModels on the same cluster (Golden ignores them). A
// switching aggressor whose input ramp starts before t = 0 is an error
// (see Validate). The context cancels the underlying transient engines
// mid-run; a nil context disables cancellation.
func (c *Cluster) Evaluate(ctx context.Context, m Method, models *Models, opts EvalOptions) (*Evaluation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.checkStarts(); err != nil {
		return nil, err
	}
	opts, err := opts.normalize(c)
	if err != nil {
		return nil, err
	}
	switch m {
	case Golden:
		return c.evaluateGolden(ctx, opts)
	case Superposition:
		return c.evaluateSuperposition(ctx, models, opts)
	case Zolotov:
		return c.evaluateZolotov(ctx, models, opts)
	case Macromodel:
		return c.evaluateMacromodel(ctx, models, opts)
	}
	return nil, fmt.Errorf("core: unknown method %v", m)
}

func (c *Cluster) evaluateGolden(ctx context.Context, opts EvalOptions) (*Evaluation, error) {
	pool, rig, err := c.lendRig("golden", c.topologyKey(), opts.Dt, func() (*simRig, error) {
		ckt, err := c.BuildGolden()
		if err != nil {
			return nil, err
		}
		rig, err := compileRig(ckt, opts.Dt)
		if err != nil {
			return nil, err
		}
		c.seedQuietLevels(rig.sess)
		return rig, nil
	})
	if err != nil {
		return nil, err
	}
	defer pool.giveBack(rig)
	// Only the source waveforms change between evaluations (the victim
	// glitch spec and the aggressor alignment offsets); re-point them and
	// re-run the compiled session.
	rig.sess.SetSource(rig.prog.MustSource("vglitch"), c.victimInputWave())
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		rig.sess.SetSource(rig.prog.MustSource(fmt.Sprintf("vagg%d_%s", i, a.SwitchPin)),
			a.aggressorInputWave())
	}
	// The result is run-local, not kept on the rig for reuse: a pooled
	// golden bench outlives its evaluation by many requests, and a record
	// of every node at every step (a few hundred kB) held by each bench
	// would dominate a server's memory, to save one allocation per
	// transistor-level run.
	var res sim.Result
	start := time.Now()
	if err := rig.sess.RunTransient(ctx, &res, opts.tstop, nil); err != nil {
		return nil, fmt.Errorf("core: golden simulation: %w", err)
	}
	elapsed := time.Since(start)
	dp := res.Waveform(c.Bus.InNode(c.Victim.Line))
	recv := res.Waveform(c.Bus.OutNode(c.Victim.Line))
	return c.finish(Golden, dp, recv, elapsed), nil
}

// compileRig compiles a bench netlist and opens its reusable session on
// the step dt.
func compileRig(ckt *circuit.Circuit, dt float64) (*simRig, error) {
	prog := sim.Compile(ckt)
	sess, err := sim.NewSession(prog, dt)
	if err != nil {
		return nil, err
	}
	return &simRig{prog: prog, sess: sess}, nil
}

// seedQuietLevels gives the golden DC solve the intended operating point:
// it seeds the victim nodes of sess at the quiet rail and the aggressor
// nodes at their start level. The levels are a function of the topology
// the bench's pool key holds, so a bench is seeded once, when it compiles.
func (c *Cluster) seedQuietLevels(sess *sim.Session) {
	quiet := c.QuietVictimLevel()
	for j := 0; j <= c.Bus.Segments; j++ {
		sess.SetGuess(fmt.Sprintf("%s.%d", c.Bus.Lines[c.Victim.Line].Name, j), quiet)
	}
	for i := range c.Aggressors {
		lvl := c.AggStartLevel(i)
		for j := 0; j <= c.Bus.Segments; j++ {
			sess.SetGuess(fmt.Sprintf("%s.%d", c.Bus.Lines[c.Aggressors[i].Line].Name, j), lvl)
		}
	}
}

// portSources is the port source set of one engine run: victim at the
// victim driving point, aggressor i's Thevenin driver at its current
// offset where switching(i) holds and its held pre-transition rail
// (heldPort) where it does not, and every other port open. Evaluations
// switch the aggressors that are not Quiet (switches); the alignment
// timing runs switch one at a time.
func (c *Cluster) portSources(models *Models, victim PortSource, switching func(i int) bool) []PortSource {
	sources := make([]PortSource, len(models.Red.Ports))
	for i := range sources {
		sources[i] = OpenPort{}
	}
	sources[models.VicPort] = victim
	for i, pi := range models.AggPorts {
		if switching(i) {
			sources[pi] = NewTheveninPort(models.Agg[i].Shifted(c.Aggressors[i].Offset))
		} else {
			sources[pi] = heldPort(models.Agg[i])
		}
	}
	return sources
}

// switches reports whether aggressor i switches in an evaluation: it is
// not Quiet.
func (c *Cluster) switches(i int) bool { return !c.Aggressors[i].Quiet }

// heldPort is an aggressor that does not switch: its quiet rail V0 behind
// its Thevenin resistance.
func heldPort(d *thevenin.Driver) *TheveninPort {
	return &TheveninPort{W: wave.Constant(d.V0), RTh: d.RTh}
}

func (c *Cluster) evaluateMacromodel(ctx context.Context, models *Models, opts EvalOptions) (*Evaluation, error) {
	start := time.Now()
	res, err := c.runMacromodel(ctx, models, opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	return c.finish(Macromodel, res.Waveform(models.VicPort), res.Waveform(models.RecvPort), elapsed), nil
}

// runMacromodel runs the engine on the paper's macromodel: the victim's
// VCCS (plus its Miller capacitor when asked for) and the aggressors'
// Thevenin drivers at their current offsets.
func (c *Cluster) runMacromodel(ctx context.Context, models *Models, opts EvalOptions) (*EngineResult, error) {
	if models == nil {
		return nil, fmt.Errorf("core: macromodel evaluation needs models")
	}
	return RunEngine(ctx, models.Red, c.macromodelSources(models, opts), models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.tstop})
}

// macromodelSources is the port source set of the macromodel: open ports,
// the victim's VCCS (with its Miller capacitor when asked for) and the
// aggressors' Thevenin drivers.
func (c *Cluster) macromodelSources(models *Models, opts EvalOptions) []PortSource {
	vic := &VCCSPort{LC: models.LC, Vin: c.victimInputWave()}
	if opts.Miller {
		vic.MillerC = models.MillerC
	}
	return c.portSources(models, vic, c.switches)
}

// victimPeak runs the engine on sources for the victim driving point's
// peak deviation from quiet and its time, the only numbers the alignment
// search reads: a peak-only run of the search s that stops once they are
// decided (enginePeak, DESIGN.md §26) and, while s probes, resumes from
// its best run's trace (§29), or under forceFullHorizon a run to tstop
// measured by wave.MeasureNoise.
func victimPeak(ctx context.Context, models *Models, sources []PortSource, opts EvalOptions, quiet float64, s *peakSearch) (peak, tPeak float64, err error) {
	eo := EngineOptions{Dt: opts.Dt, TStop: opts.tstop}
	if opts.forceFullHorizon {
		res, err := RunEngine(ctx, models.Red, sources, models.V0, eo)
		if err != nil {
			return 0, 0, err
		}
		dp := &wave.Waveform{T: res.Times, V: res.PortV[models.VicPort]}
		m := wave.MeasureNoise(dp, quiet)
		peak, tPeak = m.Peak, m.TPeak
	} else if peak, tPeak, err = enginePeak(ctx, models.Red, sources, models.V0, eo, models.VicPort, quiet, s); err != nil {
		return 0, 0, err
	}
	if opts.observe != nil {
		opts.observe(peak, tPeak)
	}
	return peak, tPeak, nil
}

func (c *Cluster) evaluateSuperposition(ctx context.Context, models *Models, opts EvalOptions) (*Evaluation, error) {
	if models == nil {
		return nil, fmt.Errorf("core: superposition evaluation needs models")
	}
	if models.Prop == nil && c.Victim.Glitch.Height > 0 {
		return nil, fmt.Errorf("core: superposition needs a propagation table (built with SkipProp=false)")
	}
	start := time.Now()
	quiet := models.QuietVic

	// Injected noise: linear victim (holding conductance), aggressors
	// switching.
	sources := c.portSources(models, &HoldingPort{G: models.HoldG, V0: quiet}, c.switches)
	res, err := RunEngine(ctx, models.Red, sources, models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.tstop})
	if err != nil {
		return nil, err
	}
	injDP := res.Waveform(models.VicPort)
	injRecv := res.Waveform(models.RecvPort)

	dp, recv := injDP, injRecv
	if g := c.Victim.Glitch; g.Height > 0 {
		// Propagated noise from the pre-characterised table, its peak
		// aligned with the injected peak — the classical worst case.
		injM := wave.MeasureNoise(injDP, quiet)
		tAlign := injM.TPeak
		if injM.Peak == 0 {
			tAlign = g.PeakTime()
		}
		prop := models.Prop.Waveform(g.Height, g.Width, models.LumpedCL, tAlign)
		// Linear superposition of the two deviations.
		dp = wave.Add(injDP, prop.Offset(-models.Prop.QuietOut))
		recv = wave.Add(injRecv, prop.Offset(-models.Prop.QuietOut))
	}
	elapsed := time.Since(start)
	return c.finish(Superposition, dp, recv, elapsed), nil
}

// DriverAloneResponse simulates the victim driver transistor-level with its
// input glitch into the lumped victim load — the waveform a pulsed-Thevenin
// victim model uses as its source (and a useful diagnostic on its own).
// The bench is pooled per victim class (driverClassKey) and re-run with the
// glitch waveform and lumped load mutated, like every other
// characterisation rig.
func (c *Cluster) DriverAloneResponse(ctx context.Context, models *Models, opts EvalOptions) (*wave.Waveform, error) {
	var w *wave.Waveform
	err := c.driverAlone(ctx, models, opts, false, 0, func(res *sim.Result, _ *sim.Certificate) { w = res.Waveform("out") })
	return w, err
}

// driverAlonePeak is the driver-alone response's peak deviation from quiet
// and its time, the only numbers the alignment reads off it: the run stops
// once the charge-contraction certificate (sim.Certificate, DESIGN.md §31)
// proves no later sample reaches the running peak, and wave.MeasureNoise
// reads the recorded prefix. Under forceFullHorizon the run goes to tstop.
func (c *Cluster) driverAlonePeak(ctx context.Context, models *Models, opts EvalOptions, quiet float64) (peak, tPeak float64, err error) {
	err = c.driverAlone(ctx, models, opts, !opts.forceFullHorizon, quiet, func(res *sim.Result, cert *sim.Certificate) {
		m := wave.MeasureNoise(res.Waveform("out"), quiet)
		peak, tPeak = m.Peak, m.TPeak
		if opts.observeDriver != nil {
			opts.observeDriver(peak, tPeak, res.Steps()-1, cert)
		}
	})
	return peak, tPeak, err
}

// driverAlone runs the driver-alone bench and hands the recorded run, and
// its certificate when it has one, to read before the bench goes back to
// its pool. With peakOnly the run stops at the first sample where the
// certificate bounds every later deviation of the output from quiet below
// the running peak, kept with wave.MeasureNoise's arithmetic
// (|v − quiet|, a strict >).
func (c *Cluster) driverAlone(ctx context.Context, models *Models, opts EvalOptions, peakOnly bool, quiet float64, read func(*sim.Result, *sim.Certificate)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.normalize(c)
	if err != nil {
		return err
	}
	v := &c.Victim

	// The bench depends only on the victim cell configuration, so a shared
	// pool serves it to every cluster whose victim matches.
	pool, rig, err := c.lendRig("driver", c.driverClassKey(), opts.Dt, func() (*simRig, error) {
		return c.compileDriverRig(opts.Dt)
	})
	if err != nil {
		return err
	}
	defer pool.giveBack(rig)
	rig.sess.SetSource(rig.prog.MustSource("v_"+v.NoisyPin), c.victimInputWave())
	// The lumped load minus the driver's own diffusion (already inside the
	// transistor netlist as junction caps).
	clump := models.LumpedCL - v.Cell.OutputCap()
	if clump < 0 {
		clump = 0
	}
	rig.sess.SetLoad(rig.prog.MustCap("cl"), clump)
	var (
		stop func([]float64) bool
		cert *sim.Certificate
	)
	if peakOnly {
		out, _ := rig.prog.Circuit().LookupNode("out")
		cert = rig.sess.Certify(out, quiet)
		running := 0.0
		stop = func(x []float64) bool {
			if d := math.Abs(x[out] - quiet); d > running {
				running = d
			}
			return cert.Below(x, running)
		}
	}
	if err := rig.sess.RunTransient(ctx, &rig.res, opts.tstop, stop); err != nil {
		return fmt.Errorf("core: driver-alone simulation: %w", err)
	}
	read(&rig.res, cert)
	return nil
}

// compileDriverRig assembles and compiles the driver-alone bench: the
// victim cell with a mutable source on its noisy pin driving a mutable
// lumped load.
func (c *Cluster) compileDriverRig(dt float64) (*simRig, error) {
	v := &c.Victim
	if !v.Cell.HasInput(v.NoisyPin) {
		return nil, fmt.Errorf("core: victim cell %s has no pin %q", v.Cell.Name(), v.NoisyPin)
	}
	// The noisy pin's glitch replaces its rail per run via SetSource.
	ckt, err := v.Cell.Bench(v.State)
	if err != nil {
		return nil, err
	}
	// Placeholder lumped load; replaced per run via SetLoad.
	ckt.AddC("cl", "out", "0", 1e-15)
	return compileRig(ckt, dt)
}

func (c *Cluster) evaluateZolotov(ctx context.Context, models *Models, opts EvalOptions) (*Evaluation, error) {
	if models == nil {
		return nil, fmt.Errorf("core: zolotov evaluation needs models")
	}
	start := time.Now()
	drv, err := c.DriverAloneResponse(ctx, models, opts)
	if err != nil {
		return nil, err
	}
	rHold := 1 / models.HoldG
	vin := c.victimInputWave()

	// Construct the pulsed Thevenin source so that, at the driver-alone
	// voltages, the linear branch (W − v)/R_hold delivers exactly the
	// non-linear driver current: W(t) = v(t) + R_hold·f(vin(t), v(t)).
	// This is the single-pass model of ref [4]; the refinements below
	// repeat the construction at the coupled response.
	pulse := pulseFromResponse(drv, vin, models.LC, rHold)

	var res *EngineResult
	for pass := 0; pass < opts.ZolotovPasses; pass++ {
		sources := c.portSources(models, &TheveninPort{W: pulse, RTh: rHold}, c.switches)
		res, err = RunEngine(ctx, models.Red, sources, models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.tstop})
		if err != nil {
			return nil, err
		}
		if pass == opts.ZolotovPasses-1 {
			break
		}
		// Fixed-point refinement: rebuild the source at the voltages just
		// computed in the coupled circuit.
		pulse = pulseFromResponse(res.Waveform(models.VicPort), vin, models.LC, rHold)
	}
	elapsed := time.Since(start)
	return c.finish(Zolotov, res.Waveform(models.VicPort), res.Waveform(models.RecvPort), elapsed), nil
}

// pulseFromResponse converts a victim driving-point response into the
// pulsed Thevenin source that reproduces the non-linear driver current
// through R_hold at that response.
func pulseFromResponse(v *wave.Waveform, vin *wave.Waveform, lc *charlib.LoadCurve, rHold float64) *wave.Waveform {
	vs := make([]float64, len(v.T))
	for i, t := range v.T {
		iNL, _, _ := lc.Eval(vin.At(t), v.V[i])
		vs[i] = v.V[i] + rHold*iNL
	}
	return wave.FromPoints(v.T, vs)
}

func (c *Cluster) finish(m Method, dp, recv *wave.Waveform, elapsed time.Duration) *Evaluation {
	quiet := c.QuietVictimLevel()
	return &Evaluation{
		Method:      m,
		DP:          dp,
		Recv:        recv,
		Metrics:     wave.MeasureNoise(dp, quiet),
		RecvMetrics: wave.MeasureNoise(recv, quiet),
		Elapsed:     elapsed,
	}
}

// AlignPeaks performs the classical peak alignment: every switching
// aggressor's noise contribution is timed with a fast linear engine run
// (one per aggressor, the others held), the victim's propagated peak is
// timed from the driver-alone response when an input glitch is present,
// and Aggressors[i].Offset is shifted so every contribution peaks at the
// common target. It returns that target time and, per aggressor, the
// aligned input-ramp start time (NaN for Quiet aggressors, which are
// skipped and keep their offsets). The feasibility filter reuses the
// target and starts to derive each aggressor's peak delay; AlignWorstCase
// builds on this with a coordinate-ascent refinement.
func (c *Cluster) AlignPeaks(ctx context.Context, models *Models, opts EvalOptions) (target float64, starts []float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if models == nil {
		return 0, nil, fmt.Errorf("core: alignment needs models")
	}
	opts, err = opts.normalize(c)
	if err != nil {
		return 0, nil, err
	}
	return c.alignPeaks(ctx, models, opts, newPeakSearch(models.Red, opts.Dt))
}

// alignPeaks is AlignPeaks on normalized options, its timing runs part of
// the search s.
func (c *Cluster) alignPeaks(ctx context.Context, models *Models, opts EvalOptions, s *peakSearch) (target float64, starts []float64, err error) {
	quiet := models.QuietVic

	peaks := make([]float64, len(c.Aggressors))
	for i := range c.Aggressors {
		if c.Aggressors[i].Quiet {
			continue
		}
		// Only aggressor i switches; the others hold their quiet rail
		// through their Thevenin resistance.
		sources := c.portSources(models, &HoldingPort{G: models.HoldG, V0: quiet}, func(j int) bool { return j == i })
		peak, tPeak, err := victimPeak(ctx, models, sources, opts, quiet, s)
		if err != nil {
			return 0, nil, fmt.Errorf("core: alignment run for aggressor %d: %w", i, err)
		}
		if peak == 0 {
			return 0, nil, fmt.Errorf("core: aggressor %d injects no measurable noise", i)
		}
		peaks[i] = tPeak
	}

	if c.Victim.Glitch.Height > 0 {
		peak, tPeak, err := c.driverAlonePeak(ctx, models, opts, quiet)
		if err != nil {
			return 0, nil, err
		}
		if peak > 0 {
			target = tPeak
		}
	}
	for i, t := range peaks {
		if !c.Aggressors[i].Quiet && t > target {
			target = t
		}
	}
	starts = make([]float64, len(c.Aggressors))
	for i := range c.Aggressors {
		if c.Aggressors[i].Quiet {
			starts[i] = math.NaN()
			continue
		}
		c.Aggressors[i].Offset += target - peaks[i]
		starts[i] = c.Aggressors[i].StartTime()
	}
	return target, starts, nil
}

// AlignWorstCase shifts the aggressor switching times so that every noise
// contribution peaks simultaneously at the victim driving point — the
// worst-case overlapping of the paper's Table 2 (see AlignPeaks) — then
// refines by greedy coordinate ascent. The computed shifts are stored in
// Aggressors[i].Offset.
func (c *Cluster) AlignWorstCase(ctx context.Context, models *Models, opts EvalOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if models == nil {
		return fmt.Errorf("core: alignment needs models")
	}
	opts, err := opts.normalize(c)
	if err != nil {
		return err
	}
	s := newPeakSearch(models.Red, opts.Dt)
	if _, _, err := c.alignPeaks(ctx, models, opts, s); err != nil {
		return err
	}
	// Peak alignment is only a linear-model heuristic: with a non-linear
	// victim the true worst case can sit tens of picoseconds away (the
	// glitch weakens the holding device asymmetrically in time). Refine by
	// greedy coordinate ascent on the macromodel peak, one aggressor at a
	// time — each probe is a fast reduced-order run.
	const (
		step   = 20e-12
		reach  = 4 // probes on each side of the current offset: ±80 ps
		passes = 2
	)
	// Each probe differs from the best vector so far in one aggressor's
	// ramp, so it repeats the best run's steps up to that ramp: it resumes
	// from the best run's trace and records its own into the spare buffer,
	// and the two swap when it becomes best (DESIGN.md §29). A probe read
	// off the list below runs nothing and never becomes best; were it to,
	// the best trace would stay another run's, which a probe only resumes
	// from as far as their sources agree.
	if !opts.noResume {
		s.best, s.spare = new(engineTrace), new(engineTrace)
	}
	keep := func() { s.best, s.spare = s.spare, s.best }
	// Pass 2 comes back to offset vectors pass 1 ran: each is run once, and
	// a repeat reads the peak off the list of the search's probes, keyed
	// by the bits of every aggressor's offset.
	probed := map[string]float64{}
	key := make([]byte, 0, 8*len(c.Aggressors))
	probe := func() (float64, error) {
		key = key[:0]
		for i := range c.Aggressors {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(c.Aggressors[i].Offset))
		}
		if p, ok := probed[string(key)]; ok {
			return p, nil
		}
		p, err := c.macromodelPeak(ctx, models, opts, s)
		if err != nil {
			return 0, err
		}
		probed[string(key)] = p
		return p, nil
	}
	best, err := probe()
	if err != nil {
		return err
	}
	keep()
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := range c.Aggressors {
			if c.Aggressors[i].Quiet {
				continue
			}
			base := c.Aggressors[i].Offset
			bestOff := base
			// An integer grid: an accumulated float offset misses base by
			// round-off and would re-run the current best.
			for k := -reach; k <= reach; k++ {
				if k == 0 {
					continue
				}
				off := base + float64(k)*step
				c.Aggressors[i].Offset = off
				p, err := probe()
				if err != nil {
					return err
				}
				if p > best+1e-9 {
					best, bestOff = p, off
					improved = true
					keep()
				}
			}
			c.Aggressors[i].Offset = bestOff
		}
		if !improved {
			break
		}
	}
	return nil
}

// EvaluateScenario evaluates the cluster with only a chosen subset of its
// aggressors switching — one feasible scenario of the correlation filter.
// active[i] selects whether aggressor i switches; starts[i] is the input
// ramp start time of an active aggressor, at t = 0 or later (ignored for
// inactive ones, which are held quiet at their pre-transition rail but
// keep loading the bus).
// The aggressors' Quiet/Offset state is restored before returning, so a
// scenario evaluation never perturbs a later classical one. Like every
// evaluation it must not run concurrently with others on the same Cluster
// value; distinct clusters are unaffected.
func (c *Cluster) EvaluateScenario(ctx context.Context, m Method, models *Models, opts EvalOptions, active []bool, starts []float64) (*Evaluation, error) {
	if len(active) != len(c.Aggressors) || len(starts) != len(c.Aggressors) {
		return nil, fmt.Errorf("core: scenario needs %d active/start entries, got %d/%d",
			len(c.Aggressors), len(active), len(starts))
	}
	// Every start is checked before any aggressor moves, so an error
	// leaves the cluster as it was.
	for i, on := range active {
		if on && (math.IsNaN(starts[i]) || math.IsInf(starts[i], 0)) {
			return nil, fmt.Errorf("core: scenario start for aggressor %d is %v", i, starts[i])
		}
	}
	savedQuiet := make([]bool, len(c.Aggressors))
	savedOffset := make([]float64, len(c.Aggressors))
	for i := range c.Aggressors {
		a := &c.Aggressors[i]
		savedQuiet[i], savedOffset[i] = a.Quiet, a.Offset
		a.Quiet = !active[i]
		if active[i] {
			a.Offset = starts[i] - a.t0()
		}
	}
	defer func() {
		for i := range c.Aggressors {
			c.Aggressors[i].Quiet, c.Aggressors[i].Offset = savedQuiet[i], savedOffset[i]
		}
	}()
	return c.Evaluate(ctx, m, models, opts)
}

// macromodelPeak evaluates the cluster's macromodel noise peak at the
// current offsets — the objective of the worst-case alignment search. It
// is evaluateMacromodel's Metrics.Peak bit for bit, from a peak-only run
// of the search s, which may be nil (victimPeak): no waveform, no receiver
// metrics, no steps after the peak is decided, and, in a search, none
// before the last one it shares with the best run.
func (c *Cluster) macromodelPeak(ctx context.Context, models *Models, opts EvalOptions, s *peakSearch) (float64, error) {
	if models == nil {
		return 0, fmt.Errorf("core: macromodel evaluation needs models")
	}
	peak, _, err := victimPeak(ctx, models, c.macromodelSources(models, opts), opts, c.QuietVictimLevel(), s)
	return peak, err
}

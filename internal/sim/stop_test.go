package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
)

// sameSamples reports the first sample of got that is not bit-identical
// to the same sample of want (time axis and every node voltage), or -1
// when all len(got.Times) samples match.
func sameSamples(got, want *Result) int {
	for i := range got.Times {
		if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) {
			return i
		}
		for n := range got.nodeV {
			if math.Float64bits(got.nodeV[n][i]) != math.Float64bits(want.nodeV[n][i]) {
				return i
			}
		}
	}
	return -1
}

// transientBranches runs a transient to tstop and returns, beside its
// result, every sample's voltage-source branch currents: the unknowns
// x[n:] after the node voltages, which a Result does not record, captured
// by a stop predicate that never fires.
func transientBranches(ctx context.Context, s *Session, tstop float64) (*Result, [][]float64, error) {
	var res Result
	var branches [][]float64
	err := s.RunTransient(ctx, &res, tstop, func(x []float64) bool {
		branches = append(branches, append([]float64(nil), x[s.n:]...))
		return false
	})
	if err != nil {
		return nil, nil, err
	}
	return &res, branches, nil
}

// sameBranches reports the first sample whose branch currents are not
// bit-identical between got and want, or -1 when all len(got) match.
func sameBranches(got, want [][]float64) int {
	for i := range got {
		for k := range got[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				return i
			}
		}
	}
	return -1
}

// TestRunTransientUntilStopsAtSample pins the stop contract on INV and
// NAND2 glitch benches of both cards, seeding on and off: a run stopped at
// step k records exactly k+1 samples, each bit-identical to the full
// run's; it advances TransientSteps by k (with PredictorSeeds still one
// short of it); stop sees each sample just as it was recorded, branch
// currents included; and a stop that never fires is the full run, bit for
// bit and counter for counter. Each compared run opens its own session: a
// seeded session's second run warm-starts its operating point from the
// first, which moves its Newton count and the last bits of its samples.
func TestRunTransientUntilStopsAtSample(t *testing.T) {
	const tstop = 600e-12
	ctx := context.Background()
	for _, tc := range []*tech.Tech{tech.Tech130(), tech.Tech90()} {
		for _, kind := range []string{"INV", "NAND2"} {
			for _, pred := range []bool{false, true} {
				ckt := glitchRig(t, tc, kind)
				out, _ := ckt.LookupNode("out")
				prog := Compile(ckt)
				fresh := func() *Session {
					sess, err := NewSession(prog, 1e-12)
					if err != nil {
						t.Fatal(err)
					}
					sess.Seed(pred)
					return sess
				}
				sess := fresh()
				var full Result
				if err := sess.RunTransient(ctx, &full, tstop, nil); err != nil {
					t.Fatal(err)
				}
				fullWork := sess.Stats()
				nsteps := full.Steps() - 1

				sess = fresh()
				never, branches, err := transientBranches(ctx, sess, tstop)
				if err != nil {
					t.Fatal(err)
				}
				if d := sess.Stats(); d != fullWork {
					t.Errorf("%s/%s pred=%v: never-firing stop counted %+v, full run %+v", tc.Name, kind, pred, d, fullWork)
				}
				if never.Steps() != full.Steps() || sameSamples(never, &full) >= 0 {
					t.Errorf("%s/%s pred=%v: never-firing stop is not the full run", tc.Name, kind, pred)
				}

				for _, k := range []int{0, 1, 2, 3, 250, nsteps - 1, nsteps} {
					var res Result
					seen := 0
					stop := func(x []float64) bool {
						if math.Float64bits(x[out]) != math.Float64bits(full.At("out", seen)) {
							t.Errorf("%s/%s pred=%v: stop saw out=%v at sample %d, recorded %v",
								tc.Name, kind, pred, x[out], seen, full.At("out", seen))
						}
						for b, ib := range x[sess.n:] {
							if math.Float64bits(ib) != math.Float64bits(branches[seen][b]) {
								t.Errorf("%s/%s pred=%v: stop saw branch %d current %v at sample %d, full run %v",
									tc.Name, kind, pred, b, ib, seen, branches[seen][b])
							}
						}
						seen++
						return seen == k+1
					}
					sess = fresh()
					if err := sess.RunTransient(ctx, &res, tstop, stop); err != nil {
						t.Fatal(err)
					}
					d := sess.Stats()
					if res.Steps() != k+1 {
						t.Fatalf("%s/%s pred=%v stop at %d: %d samples, want %d", tc.Name, kind, pred, k, res.Steps(), k+1)
					}
					if i := sameSamples(&res, &full); i >= 0 {
						t.Fatalf("%s/%s pred=%v stop at %d: sample %d differs from the full run", tc.Name, kind, pred, k, i)
					}
					if d.TransientSteps != int64(k) || d.Transient != 1 || d.DC != 1 {
						t.Errorf("%s/%s pred=%v stop at %d: counted %d steps, %d transients, %d DC; want %d, 1, 1",
							tc.Name, kind, pred, k, d.TransientSteps, d.Transient, d.DC, k)
					}
					wantSeeds := int64(0)
					if pred && k > 0 {
						wantSeeds = d.TransientSteps - 1
					}
					if d.PredictorSeeds != wantSeeds {
						t.Errorf("%s/%s pred=%v stop at %d: %d predictor seeds, want %d", tc.Name, kind, pred, k, d.PredictorSeeds, wantSeeds)
					}
				}
			}
		}
	}
}

// nanVCCS is a 1 mS resistor to ground realised as a VCCS whose current
// (or, with slope set, whose output conductance) turns NaN once the
// controlling voltage exceeds above — a device model gone non-finite.
type nanVCCS struct {
	slope bool
	above float64
}

func (f nanVCCS) Eval(vc, vo float64) (float64, float64, float64) {
	i, gout := -1e-3*vo, -1e-3
	if vc > f.above {
		if f.slope {
			gout = math.NaN()
		} else {
			i = math.NaN()
		}
	}
	return i, 0, gout
}

// nanBench is a source → 1 kΩ → node bench loaded by nanVCCS, with 10 fF
// on the node.
func nanBench(src *wave.Waveform, f nanVCCS) *circuit.Circuit {
	c := circuit.New()
	c.AddV("vs", "in", "0", src)
	c.AddR("r1", "in", "out", 1000)
	c.AddVCCS("g1", "in", "out", f)
	c.AddC("c1", "out", "0", 10e-15)
	return c
}

// TestNewtonRejectsNaN: a device evaluation that returns NaN must end the
// solve in ErrNoConvergence. A NaN |Δx| or residual fails an `a > max`
// test, so maxima taken that way stay finite and Newton accepts NaN
// iterates: DC and transient runs return no error and NaN samples.
func TestNewtonRejectsNaN(t *testing.T) {
	for _, slope := range []bool{false, true} {
		// DC: the 1 V source puts the control above the NaN threshold at
		// the operating point.
		if _, err := freshDC(nanBench(wave.Constant(1), nanVCCS{slope: slope, above: 0.5}), nil); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("slope=%v: DC error %v, want ErrNoConvergence", slope, err)
		}
		// Transient: the operating point at 0 V is finite, and the ramp
		// crosses the threshold mid-run. With a 20-segment line on the
		// node the run takes the factored step loop, whose failed steps
		// are re-solved densely and must fail there too.
		for _, segments := range []int{0, 20} {
			ckt := nanBench(wave.SaturatedRamp(0, 1, 100e-12, 100e-12), nanVCCS{slope: slope, above: 0.5})
			addLadder(ckt, "out", segments)
			prog := Compile(ckt)
			if factored := segments > 0; prog.lr.use != factored {
				t.Fatalf("segments=%d: factored path %v, want %v", segments, prog.lr.use, factored)
			}
			for _, pred := range []bool{false, true} {
				sess, err := NewSession(prog, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				sess.Seed(pred)
				res, err := transientOf(context.Background(), sess, 400e-12)
				if !errors.Is(err, ErrNoConvergence) {
					t.Errorf("slope=%v segments=%d pred=%v: transient error %v, want ErrNoConvergence", slope, segments, pred, err)
				}
				if res != nil {
					t.Errorf("slope=%v segments=%d pred=%v: transient returned a result of %d samples", slope, segments, pred, res.Steps())
				}
				if st := sess.Stats(); segments > 0 && (st.LowRankRuns != 1 || st.LowRankFallbacks == 0) {
					t.Errorf("slope=%v segments=%d pred=%v: LowRankRuns %d, LowRankFallbacks %d, want 1 and > 0",
						slope, segments, pred, st.LowRankRuns, st.LowRankFallbacks)
				}
			}
		}
	}
}

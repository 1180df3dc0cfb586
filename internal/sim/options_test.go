package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/wave"
)

func optTestCircuit() *circuit.Circuit {
	c := circuit.New()
	c.AddV("vs", "in", "0", wave.SaturatedRamp(0, 1, 0, 1e-12))
	c.AddR("r", "in", "out", 1000)
	c.AddC("c", "out", "0", 1e-12)
	return c
}

// TestOptionsValidateRejectsNonFinite: a non-finite step (NewSession) or
// stop time (RunTransient) is an *OptionsError naming it, and a non-finite
// guess panics in SetGuess.
func TestOptionsValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	prog := Compile(optTestCircuit())
	stopAt := func(tstop float64) func() error {
		return func() error {
			sess, err := NewSession(prog, 1e-12)
			if err != nil {
				return err
			}
			return sess.RunTransient(context.Background(), &Result{}, tstop, nil)
		}
	}
	guess := func(v float64) func() error {
		return func() error {
			sess, err := NewSession(prog, 1e-12)
			if err != nil {
				return err
			}
			sess.SetGuess("out", v)
			return nil
		}
	}
	cases := []struct {
		name  string
		try   func() error
		field string // empty: the call must panic
	}{
		{"NaN Dt", func() error { _, err := NewSession(prog, nan); return err }, "Dt"},
		{"Inf Dt", func() error { _, err := NewSession(prog, inf); return err }, "Dt"},
		{"NaN TStop", stopAt(nan), "TStop"},
		{"Inf TStop", stopAt(inf), "TStop"},
		{"-Inf TStop", stopAt(math.Inf(-1)), "TStop"},
		{"NaN guess", guess(nan), ""},
		{"Inf guess", guess(inf), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.field == "" {
				defer func() {
					if recover() == nil {
						t.Error("SetGuess accepted a non-finite guess")
					}
				}()
				tc.try()
				return
			}
			err := tc.try()
			if err == nil {
				t.Fatal("non-finite option accepted")
			}
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionsError", err)
			}
			if oe.Field != tc.field {
				t.Errorf("Field = %q, want %q", oe.Field, tc.field)
			}
			if !errors.Is(err, ErrInvalidOptions) {
				t.Error("error does not unwrap to ErrInvalidOptions")
			}
		})
	}
}

// TestOptionsValidateAcceptsDefaultsAndNegatives: a zero or negative step
// selects the 1 ps default instead of being rejected, and finite guesses,
// of known nodes or not, are accepted.
func TestOptionsValidateAcceptsDefaultsAndNegatives(t *testing.T) {
	prog := Compile(optTestCircuit())
	for _, dt := range []float64{0, -1} {
		sess, err := NewSession(prog, dt)
		if err != nil {
			t.Fatalf("NewSession(dt=%g) = %v, want nil", dt, err)
		}
		sess.SetGuess("out", 1.2)
		sess.SetGuess("nosuch", -0.3)
		var res Result
		if err := sess.RunTransient(context.Background(), &res, 10e-12, nil); err != nil {
			t.Fatal(err)
		}
		if res.Steps() != 11 || res.Times[1] != 1e-12 {
			t.Errorf("dt=%g: %d samples, first step %g; want the 1 ps default", dt, res.Steps(), res.Times[1])
		}
	}
}

// TestDCRejectsNonFiniteOptions: a NaN step is rejected when the session
// opens, before any solve starts.
func TestDCRejectsNonFiniteOptions(t *testing.T) {
	before := Snapshot()
	_, err := NewSession(Compile(optTestCircuit()), math.NaN())
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewSession with NaN Dt: err = %v, want ErrInvalidOptions", err)
	}
	// Rejected runs never start a solve.
	if d := Snapshot().Sub(before); d.Total() != 0 {
		t.Errorf("counters advanced on rejected options: %+v", d)
	}
}

// TestTransientRejectsNonFiniteOptions: every run method rejects a
// non-finite stop time before it solves.
func TestTransientRejectsNonFiniteOptions(t *testing.T) {
	sess, err := NewSession(Compile(optTestCircuit()), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	before := sess.Stats()
	if err := sess.RunTransient(context.Background(), &res, math.Inf(1), nil); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("RunTransient(tstop=+Inf): err = %v, want ErrInvalidOptions", err)
	}
	if err := sess.RunTransientAdaptive(context.Background(), &res, math.NaN()); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("RunTransientAdaptive(tstop=NaN): err = %v, want ErrInvalidOptions", err)
	}
	if d := sess.Stats().Sub(before); d.DC != 0 || d.TransientSteps != 0 {
		t.Errorf("rejected runs solved: %+v", d)
	}
}

func TestNewSessionRejectsNonFiniteOptions(t *testing.T) {
	prog := Compile(optTestCircuit())
	if _, err := NewSession(prog, math.NaN()); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewSession with NaN Dt: err = %v, want ErrInvalidOptions", err)
	}
}

func TestRunTransientRejectsNonFiniteTStop(t *testing.T) {
	sess, err := NewSession(Compile(optTestCircuit()), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for _, tstop := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := sess.RunTransient(context.Background(), &res, tstop, nil); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("RunTransient(tstop=%v): err = %v, want ErrInvalidOptions", tstop, err)
		}
	}
	if err := sess.RunTransient(context.Background(), &res, 0, nil); err == nil {
		t.Error("RunTransient(0) should fail")
	}
}

// A finite Dt so small that the run would record more than the sample cap
// is rejected with the typed *GridError before the result is sized, by
// both transient run methods.
func TestTransientRejectsOversizedGrid(t *testing.T) {
	check := func(what string, err error) {
		t.Helper()
		var ge *GridError
		if !errors.Is(err, ErrInvalidOptions) || !errors.As(err, &ge) || ge.Dt != 1e-19 || ge.TStop != 2e-9 {
			t.Errorf("%s: err = %v, want *GridError on Dt = 1e-19", what, err)
		}
	}
	sess, err := NewSession(Compile(optTestCircuit()), 1e-19)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	check("RunTransient", sess.RunTransient(context.Background(), &res, 2e-9, nil))
	check("RunTransientAdaptive", sess.RunTransientAdaptive(context.Background(), &res, 2e-9))
}

// GridSteps keeps the legacy loop's step count, and its cap counts samples
// of every recorded signal: 2^25 in all fit, one point more does not. A
// grid of no step is TestGridStepsRejectsEmptyGrid's.
func TestGridSteps(t *testing.T) {
	for _, tc := range []struct {
		tstop, dt float64
		n         int
	}{{1e-9, 1e-12, 1000}, {777.7e-12, 2e-12, 389}, {0.6e-12, 1e-12, 1}} {
		if n, err := GridSteps(tc.tstop, tc.dt, 3); err != nil || n != tc.n {
			t.Errorf("GridSteps(%g, %g) = %d, %v; want %d steps", tc.tstop, tc.dt, n, err, tc.n)
		}
	}
	for _, tc := range []struct {
		steps   float64
		signals int
		ok      bool
	}{{1<<25 - 1, 1, true}, {1 << 25, 1, false}, {1<<24 - 1, 2, true}, {1 << 24, 2, false}} {
		n, err := GridSteps(tc.steps, 1, tc.signals)
		var ge *GridError
		switch {
		case tc.ok && (err != nil || n != int(tc.steps)):
			t.Errorf("%g steps of %d signals: %d, %v; want accepted", tc.steps, tc.signals, n, err)
		case !tc.ok && !errors.As(err, &ge):
			t.Errorf("%g steps of %d signals: err = %v, want *GridError", tc.steps, tc.signals, err)
		}
	}
}

// A step longer than twice the stop time leaves a grid of no step, whose
// run would record t = 0 alone and read no noise: GridSteps rejects it
// with an *OptionsError on Dt, and so does every transient on it.
func TestGridStepsRejectsEmptyGrid(t *testing.T) {
	for _, tc := range []struct{ tstop, dt float64 }{{0.4e-12, 1e-12}, {1.9e-9, 5e-9}, {1e-9, math.MaxFloat64}} {
		n, err := GridSteps(tc.tstop, tc.dt, 3)
		var oe *OptionsError
		if !errors.Is(err, ErrInvalidOptions) || !errors.As(err, &oe) || oe.Field != "Dt" || oe.Value != tc.dt {
			t.Errorf("GridSteps(%g, %g) = %d, %v; want an *OptionsError on Dt", tc.tstop, tc.dt, n, err)
		}
	}
	if n, err := GridSteps(0.5e-12, 1e-12, 3); err != nil || n != 1 {
		t.Errorf("GridSteps(0.5 ps, 1 ps) = %d, %v; want the one step it rounds to", n, err)
	}
	sess, err := NewSession(Compile(optTestCircuit()), 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var oe *OptionsError
	if err := sess.RunTransient(context.Background(), &res, 1.9e-9, nil); !errors.As(err, &oe) || oe.Field != "Dt" {
		t.Errorf("RunTransient at Dt 5 ns to 1.9 ns: err = %v, want an *OptionsError on Dt", err)
	}
}

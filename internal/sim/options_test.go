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

func TestOptionsValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"NaN Dt", Options{Dt: nan}, "Dt"},
		{"Inf Dt", Options{Dt: inf}, "Dt"},
		{"NaN TStop", Options{TStop: nan}, "TStop"},
		{"Inf TStop", Options{TStop: inf}, "TStop"},
		{"-Inf TStop", Options{TStop: math.Inf(-1)}, "TStop"},
		{"NaN VTol", Options{VTol: nan}, "VTol"},
		{"NaN ITol", Options{ITol: nan}, "ITol"},
		{"Inf Gmin", Options{Gmin: inf}, "Gmin"},
		{"NaN MaxStep", Options{MaxStep: nan}, "MaxStep"},
		{"NaN guess", Options{InitialGuess: map[string]float64{"out": nan}}, `InitialGuess["out"]`},
		{"Inf guess", Options{InitialGuess: map[string]float64{"out": inf}}, `InitialGuess["out"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatal("Validate accepted non-finite option")
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

func TestOptionsValidateAcceptsDefaultsAndNegatives(t *testing.T) {
	// Zero and negative values are replaced by defaults, not rejected.
	for _, o := range []Options{
		{},
		{Dt: -1, TStop: -2, VTol: -1, ITol: -1, Gmin: -1, MaxStep: -1},
		{InitialGuess: map[string]float64{"a": 1.2, "b": -0.3}},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

func TestDCRejectsNonFiniteOptions(t *testing.T) {
	before := Snapshot()
	_, err := DC(optTestCircuit(), Options{VTol: math.NaN()})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("DC with NaN VTol: err = %v, want ErrInvalidOptions", err)
	}
	// Rejected runs never start a solve.
	if d := Snapshot().Sub(before); d.Total() != 0 {
		t.Errorf("counters advanced on rejected options: %+v", d)
	}
}

func TestTransientRejectsNonFiniteOptions(t *testing.T) {
	for _, o := range []Options{
		{Dt: math.NaN(), TStop: 1e-9},
		{Dt: 1e-12, TStop: math.Inf(1)},
		{Dt: 1e-12, TStop: 1e-9, InitialGuess: map[string]float64{"out": math.NaN()}},
	} {
		if _, err := Transient(context.Background(), optTestCircuit(), o); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Transient(%+v): err = %v, want ErrInvalidOptions", o, err)
		}
	}
}

func TestNewSessionRejectsNonFiniteOptions(t *testing.T) {
	prog := Compile(optTestCircuit())
	if _, err := NewSession(prog, Options{Gmin: math.NaN()}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewSession with NaN Gmin: err = %v, want ErrInvalidOptions", err)
	}
}

func TestRunTransientRejectsNonFiniteTStop(t *testing.T) {
	sess, err := NewSession(Compile(optTestCircuit()), Options{Dt: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, tstop := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := sess.RunTransient(context.Background(), tstop); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("RunTransient(tstop=%v): err = %v, want ErrInvalidOptions", tstop, err)
		}
	}
	if _, err := sess.RunTransient(context.Background(), 0); err == nil {
		t.Error("RunTransient(0) should fail")
	}
}

// A finite Dt so small that the run would record more than the sample cap
// is rejected with the typed *GridError before the result is sized,
// through Transient and through a session's RunTransient.
func TestTransientRejectsOversizedGrid(t *testing.T) {
	check := func(what string, err error) {
		t.Helper()
		var ge *GridError
		if !errors.Is(err, ErrInvalidOptions) || !errors.As(err, &ge) || ge.Dt != 1e-19 || ge.TStop != 2e-9 {
			t.Errorf("%s: err = %v, want *GridError on Dt = 1e-19", what, err)
		}
	}
	_, err := Transient(context.Background(), optTestCircuit(), Options{Dt: 1e-19, TStop: 2e-9})
	check("Transient", err)
	sess, err := NewSession(Compile(optTestCircuit()), Options{Dt: 1e-19})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.RunTransient(context.Background(), 2e-9)
	check("RunTransient", err)
}

// GridSteps keeps the legacy loop's step count, and its cap counts samples
// of every recorded signal: 2^25 in all fit, one point more does not.
func TestGridSteps(t *testing.T) {
	for _, tc := range []struct {
		tstop, dt float64
		n         int
	}{{1e-9, 1e-12, 1000}, {777.7e-12, 2e-12, 389}, {0.4e-12, 1e-12, 0}, {0.6e-12, 1e-12, 1}} {
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

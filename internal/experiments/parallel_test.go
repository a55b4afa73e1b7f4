package experiments

import (
	"errors"
	"strings"
	"testing"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// TestWorkersDeterministic is the replication engine's core contract:
// for every figure driver, the same seed yields byte-identical output
// whether replications run on one worker or eight. Every spec form
// runs too, bound to the paper-baseline cell.
func TestWorkersDeterministic(t *testing.T) {
	type input struct {
		name string
		run  Driver
	}
	var inputs []input
	for _, entry := range Registry() {
		inputs = append(inputs, input{entry.ID, entry.Run})
		if entry.Spec != nil {
			c := compileScenario(t, "paper-baseline")
			inputs = append(inputs, input{entry.ID + "/spec", func(sc Scale) (*Figure, error) { return entry.Spec(c, sc) }})
		}
	}
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			serial := Tiny()
			serial.Workers = 1
			parallel := Tiny()
			parallel.Workers = 8

			fig1, err := in.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			fig8, err := in.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if fig1.CSV() != fig8.CSV() {
				t.Errorf("%s: CSV differs between -workers=1 and -workers=8", in.name)
			}
			j1, err := fig1.JSON()
			if err != nil {
				t.Fatal(err)
			}
			j8, err := fig8.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if j1 != j8 {
				t.Errorf("%s: JSON differs between -workers=1 and -workers=8", in.name)
			}
			if fig1.Table() != fig8.Table() {
				t.Errorf("%s: table differs between -workers=1 and -workers=8", in.name)
			}
		})
	}
}

// TestAblationDeterministic covers the one Scenario driver outside the
// registry.
func TestAblationDeterministic(t *testing.T) {
	run := func(workers int) string {
		sc := Tiny()
		sc.Workers = workers
		fig, err := AblationImmediateAccess(DefaultAblation(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return fig.CSV()
	}
	if run(1) != run(8) {
		t.Error("ablation output differs between worker counts")
	}
}

// TestScenarioBuildError ensures Build failures short-circuit before
// any unit runs.
func TestScenarioBuildError(t *testing.T) {
	sentinel := errors.New("bad build")
	_, err := Run(Scenario[int]{
		Units: 4,
		Build: func() error { return sentinel },
		RunOne: func(_ *probe.TrainMeter, i int, _ sim.Stream) (int, error) {
			t.Error("RunOne called after Build failed")
			return 0, nil
		},
		Reduce: func([]int) (*Figure, error) {
			t.Error("Reduce called after Build failed")
			return nil, nil
		},
	}, Tiny())
	if !errors.Is(err, sentinel) {
		t.Fatalf("Build error not propagated: %v", err)
	}
}

// TestScenarioUnitError ensures a failing unit surfaces with its index
// and prevents Reduce.
func TestScenarioUnitError(t *testing.T) {
	_, err := Run(Scenario[int]{
		Units: 8,
		RunOne: func(_ *probe.TrainMeter, i int, _ sim.Stream) (int, error) {
			if i == 3 {
				return 0, errors.New("unit failure")
			}
			return i, nil
		},
		Reduce: func([]int) (*Figure, error) {
			t.Error("Reduce called despite unit failure")
			return nil, nil
		},
	}, Scale{Reps: 1, SweepPoints: 2, SteadySeconds: 1, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "unit") {
		t.Fatalf("unit error not surfaced: %v", err)
	}
}

// TestScenarioStreams checks that unit i receives the substream
// Child(i) of the scenario seed, independent of worker count.
func TestScenarioStreams(t *testing.T) {
	collect := func(workers int) []int64 {
		seeds := make([]int64, 16)
		_, err := Run(Scenario[int]{
			Seed:  123,
			Units: len(seeds),
			RunOne: func(_ *probe.TrainMeter, i int, s sim.Stream) (int, error) {
				seeds[i] = s.Seed()
				return 0, nil
			},
			Reduce: func([]int) (*Figure, error) { return &Figure{}, nil },
		}, Scale{Reps: 1, SweepPoints: 2, SteadySeconds: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	root := sim.NewStream(123)
	s1, s8 := collect(1), collect(8)
	for i := range s1 {
		want := root.Child(uint64(i)).Seed()
		if s1[i] != want || s8[i] != want {
			t.Fatalf("unit %d stream: serial %d, parallel %d, want %d", i, s1[i], s8[i], want)
		}
	}
}

// TestInvalidScaleErrors ensures an invalid Scale reaches the drivers
// as an error, not a panic, even though sweeps are built before Run
// validates.
func TestInvalidScaleErrors(t *testing.T) {
	bad := Scale{Reps: 8, SweepPoints: -1, SteadySeconds: 0.5}
	if _, err := TrainRRC("fig13", DefaultFig13(), bad); err == nil {
		t.Error("TrainRRC accepted negative sweep points")
	}
	if _, err := Fig1SteadyStateRRC(DefaultFig1(), bad); err == nil {
		t.Error("Fig1 accepted negative sweep points")
	}
	if _, err := Fig17MSER(DefaultFig17(), bad); err == nil {
		t.Error("Fig17 accepted negative sweep points")
	}
	if _, err := Fig6MeanAccessDelay(DefaultFig6(), Scale{Reps: 0, SweepPoints: 5, SteadySeconds: 1}, 10); err == nil {
		t.Error("Fig6 accepted zero reps")
	}
}

// TestScenarioWorkerState: every unit receives the train meter Run
// built for the executing worker — one per worker goroutine, so at
// most sc.Workers distinct meters serve all the units.
func TestScenarioWorkerState(t *testing.T) {
	sc := Tiny()
	sc.Workers = 3
	units := 12
	seen := make([]*probe.TrainMeter, units)
	_, err := Run(Scenario[int]{
		Units: units,
		RunOne: func(m *probe.TrainMeter, i int, _ sim.Stream) (int, error) {
			seen[i] = m
			return i, nil
		},
		Reduce: func([]int) (*Figure, error) { return &Figure{}, nil },
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	meters := map[*probe.TrainMeter]bool{}
	for i, m := range seen {
		if m == nil {
			t.Fatalf("unit %d received no meter", i)
		}
		meters[m] = true
	}
	if len(meters) > sc.Workers {
		t.Fatalf("%d distinct meters for %d workers", len(meters), sc.Workers)
	}
}

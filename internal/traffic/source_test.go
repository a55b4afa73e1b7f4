package traffic

import (
	"reflect"
	"testing"

	"csmabw/internal/sim"
)

func TestMergeSourcesSingle(t *testing.T) {
	src := NewTrain(3, 0, 100, 0)
	if MergeSources(src) != src {
		t.Fatal("single-source merge should be the identity")
	}
}

func TestFromScheduleRoundTrip(t *testing.T) {
	sched := Collect(MergeSources(NewTrain(5, sim.Millisecond, 1500, 0), NewCBR(1e6, 576, 0, 20*sim.Millisecond)))
	if len(sched) != 5+5 {
		t.Fatalf("schedule has %d arrivals, want 10", len(sched))
	}
	got := Collect(FromSchedule(sched))
	if !reflect.DeepEqual(sched, got) {
		t.Fatal("FromSchedule round trip differs")
	}
}

func TestSourceConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewTrain(0, 0, 100, 0) },
		func() { NewTrain(1, -1, 100, 0) },
		func() { NewOnOff(sim.NewRand(1), 1e6, 100, 0, 0, 0, sim.Second) },
		func() { NewPoisson(sim.NewRand(1), 0, 100, 0, sim.Second) },
		func() { NewCBR(1e6, 0, 0, sim.Second) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

package mac

import (
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// The event-driven core must be an invisible refactor: a lazily
// generated scenario behaves byte-identically to the same arrivals
// replayed from a recorded schedule, and the hot path — pump, contend,
// transmit, deliver — must not allocate per frame.

// hotScenario is a loaded two-station scenario with enough frames to
// make per-frame allocations visible. Its sources are single-use, so
// every run builds a fresh one.
func hotScenario(seed int64) Config {
	end := 3 * sim.Second
	return Config{Phy: phy.B11(), Seed: seed, Horizon: end, Stations: []StationConfig{
		{Name: "a", Source: traffic.MergeSources(
			traffic.NewTrain(200, 2*sim.Millisecond, 1500, 100*sim.Millisecond),
			traffic.NewPoisson(sim.NewRand(seed+1), 1e6, 576, 0, end))},
		{Name: "b", Source: traffic.NewPoisson(sim.NewRand(seed+2), 4e6, 1500, 0, end)},
	}}
}

// flatten reduces a result to comparable per-frame values (the Frame
// pointers themselves necessarily differ between runs).
func flatten(res *Result) []sim.Time {
	var out []sim.Time
	for _, frames := range res.Frames {
		for _, f := range frames {
			out = append(out, f.Arrived, f.HOL, f.Departed, sim.Time(f.Retries), sim.Time(f.ID))
		}
	}
	return out
}

// TestSourceMatchesArrivalsByteIdentical pins that the engine reads
// nothing of a source but its arrivals: each station's generator,
// collected and replayed through traffic.FromSchedule, reproduces the
// generated run frame for frame.
func TestSourceMatchesArrivalsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		lazy, err := Run(hotScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := hotScenario(seed)
		for i := range cfg.Stations {
			cfg.Stations[i].Source = traffic.FromSchedule(traffic.Collect(cfg.Stations[i].Source))
		}
		replayed, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fe, fl := flatten(replayed), flatten(lazy)
		if len(fe) != len(fl) {
			t.Fatalf("seed %d: %d vs %d frame values", seed, len(fe), len(fl))
		}
		for i := range fe {
			if fe[i] != fl[i] {
				t.Fatalf("seed %d: frame value %d differs: %v vs %v", seed, i, fe[i], fl[i])
			}
		}
		if replayed.End != lazy.End {
			t.Fatalf("seed %d: end %v vs %v", seed, replayed.End, lazy.End)
		}
		for i := range replayed.Stats {
			if replayed.Stats[i] != lazy.Stats[i] {
				t.Fatalf("seed %d: stats[%d] differ: %+v vs %+v", seed, i, replayed.Stats[i], lazy.Stats[i])
			}
		}
	}
}

func TestStopWhenCutsRunPrefixIntact(t *testing.T) {
	full, err := Run(hotScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	// Stop once station 0 has delivered 50 frames: everything recorded
	// up to that point must match the full run exactly.
	cfg := hotScenario(3)
	delivered := 0
	cfg.OnDepart = func(e *Engine, f *Frame) {
		if f.Station == 0 {
			delivered++
		}
	}
	cfg.StopWhen = func() bool { return delivered >= 50 }
	part, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Frames[0]) < 50 {
		t.Fatalf("stopped run delivered %d frames for station 0, want >= 50", len(part.Frames[0]))
	}
	if part.End >= full.End {
		t.Fatalf("stopped run did not stop early: end %v vs %v", part.End, full.End)
	}
	for s := range part.Frames {
		for i, f := range part.Frames[s] {
			g := full.Frames[s][i]
			if f.Departed != g.Departed || f.HOL != g.HOL || f.Arrived != g.Arrived {
				t.Fatalf("station %d frame %d differs between stopped and full run", s, i)
			}
		}
	}
}

func TestRecordFramesFilter(t *testing.T) {
	all, err := Run(hotScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotScenario(4)
	cfg.RecordFrames = func(station int) bool { return station == 0 }
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames[1]) != 0 {
		t.Fatalf("station 1 recorded %d frames despite filter", len(got.Frames[1]))
	}
	if len(got.Frames[0]) != len(all.Frames[0]) {
		t.Fatalf("station 0 recorded %d frames, want %d", len(got.Frames[0]), len(all.Frames[0]))
	}
	// Timing and stats are unaffected by what is retained.
	if got.End != all.End {
		t.Fatalf("end %v vs %v", got.End, all.End)
	}
	for i := range got.Stats {
		if got.Stats[i] != all.Stats[i] {
			t.Fatalf("stats[%d] differ: %+v vs %+v", i, got.Stats[i], all.Stats[i])
		}
	}
}

func TestSourceOrderViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order source accepted")
		}
	}()
	_, err := Run(Config{
		Phy: phy.B11(),
		Stations: []StationConfig{{
			Source: traffic.FromSchedule([]traffic.Arrival{
				{At: sim.Second, Size: 100, Index: -1},
				{At: sim.Millisecond, Size: 100, Index: -1},
			}),
		}},
	})
	_ = err
}

// hotScenarioEDCA is hotScenario with the EDCA knobs engaged: mixed
// access categories (including a TXOP-bursting one) and a
// heterogeneous data rate, so the alloc bound also pins the EDCA hot
// path — AIFS sensing, per-station windows, TXOP bursts and
// per-station airtimes.
func hotScenarioEDCA(seed int64) Config {
	cfg := hotScenario(seed)
	cfg.Stations[0].AC = phy.ACVideo
	cfg.Stations[1].AC = phy.ACBestEffort
	cfg.Stations[1].DataRate = 5.5e6
	return cfg
}

// TestHotPathAllocBound pins the engine's per-frame allocation budget,
// for plain DCF and for an EDCA configuration alike. The scan-driven
// engine allocated at least one Frame per arrival plus
// winner/collision bookkeeping per busy period (thousands of
// allocations in this scenario); the arena-and-scratch core must stay
// under a small fraction of a frame's worth each.
func TestHotPathAllocBound(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed int64) Config
	}{
		{"dcf", func(seed int64) Config { return hotScenario(seed) }},
		{"edca", hotScenarioEDCA},
		// Scheduled events must stay off the per-frame path: the whole
		// schedule costs a handful of setup allocations, then one integer
		// comparison per busy period.
		{"events", func(seed int64) Config {
			cfg := scheduledHotScenario(seed)
			cfg.Stations = hotScenario(seed).Stations
			return cfg
		}},
		// The busy-cluster machinery — candidate growth, overlap
		// resolution, bystander hearing — runs from engine-owned scratch
		// too: a hidden pair and a mid-run edge cut stay inside the budget.
		{"hidden", func(seed int64) Config {
			cfg := hotScenario(seed)
			cfg.Channel.Topology = HiddenPair()
			return cfg
		}},
		{"edge-events", func(seed int64) Config {
			cfg := hotScenario(seed)
			cfg.Schedule = []ScheduledEvent{
				{At: sim.Second, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}},
				{At: 2 * sim.Second, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: true}},
			}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var delivered int
			allocs := testing.AllocsPerRun(3, func() {
				res, err := Run(tc.build(7))
				if err != nil {
					t.Fatal(err)
				}
				delivered = 0
				for _, st := range res.Stats {
					delivered += st.Delivered
				}
			})
			if delivered < 1000 {
				t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
			}
			// Budget: engine setup + arena blocks + slice growth, but
			// nothing per frame. One tenth of an allocation per delivered
			// frame leaves room for result-slice growth while failing any
			// per-frame design.
			if max := float64(delivered) / 10; allocs > max {
				t.Fatalf("%.0f allocations for %d delivered frames (budget %.0f)", allocs, delivered, max)
			}
		})
	}
}

// BenchmarkEngineHotPath reports the allocation profile of a loaded
// run; together with TestHotPathAllocBound it pins the zero-alloc hot
// path (allocs/op stays flat in the frame count).
func BenchmarkEngineHotPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(hotScenario(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

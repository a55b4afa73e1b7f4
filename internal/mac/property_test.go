package mac

import (
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// randomConfig draws a complete randomized scenario — station count,
// traffic, PHY profile, RTS threshold, loss model, topology, capture —
// from r. The space deliberately includes the imperfect-channel knobs
// so the invariants hold on the cluster engine too. Each station's
// arrivals are collected into a schedule, returned alongside the
// config so a test can count offered frames and replay the scenario.
func randomConfig(r *sim.Rand, horizon sim.Time) (Config, [][]traffic.Arrival) {
	profiles := []func() phy.Params{phy.B11, phy.B11Short, phy.G54}
	n := 1 + r.Intn(4)
	cfg := Config{
		Phy:  profiles[r.Intn(len(profiles))](),
		Seed: int64(r.Uint64()),
	}
	if r.Intn(2) == 0 {
		cfg.RTSThreshold = 100 + r.Intn(1400)
	}
	if r.Intn(2) == 0 {
		cfg.Channel.Loss = phy.ErrorModel{FER: r.Float64() * 0.3}
	}
	if r.Intn(3) == 0 {
		cfg.Channel.Loss.BER = r.Float64() * 1e-4
	}
	switch r.Intn(3) {
	case 0: // full mesh (nil)
	case 1:
		cfg.Channel.Topology = NewTopology(n)
	case 2:
		cfg.Channel.Topology = Chain(n)
	}
	if r.Intn(2) == 0 {
		cfg.Channel.CaptureThresholdDB = 1 + r.Float64()*9
	}
	if r.Intn(2) == 0 {
		cfg.DisableImmediateAccess = true
	}
	sizes := []int{40, 576, 1000, 1500}
	multi := cfg.Channel.Topology != nil && !cfg.Channel.Topology.IsFullMesh()
	txop := false
	scheds := make([][]traffic.Arrival, n)
	for i := 0; i < n; i++ {
		rate := (0.5 + r.Float64()*5) * 1e6
		scheds[i] = traffic.Collect(traffic.NewPoisson(r.Split(uint64(i)+1), rate, sizes[r.Intn(len(sizes))], 0, horizon))
		sc := StationConfig{
			Source:  traffic.FromSchedule(scheds[i]),
			PowerDB: r.Float64() * 12,
		}
		if r.Intn(4) == 0 {
			override := phy.ErrorModel{FER: r.Float64() * 0.2}
			sc.Loss = &override
		}
		// EDCA knobs: any category without a TXOP limit is always legal;
		// the TXOP-bearing ones (AC_VI/AC_VO) only on a full mesh, the
		// one topology where the resolver bursts.
		switch r.Intn(3) {
		case 0:
			sc.AC = []phy.AccessCategory{phy.ACBackground, phy.ACBestEffort}[r.Intn(2)]
		case 1:
			if !multi {
				sc.AC = []phy.AccessCategory{phy.ACVideo, phy.ACVoice}[r.Intn(2)]
				txop = true
			}
		}
		if r.Intn(3) == 0 {
			sc.DataRate = []float64{1e6, 2e6, 5.5e6, 11e6}[r.Intn(4)]
		}
		cfg.Stations = append(cfg.Stations, sc)
	}
	if r.Intn(3) == 0 {
		cfg.Schedule = randomSchedule(r, n, horizon, txop)
	}
	return cfg, scheds
}

// replay returns cfg with every station fed afresh from its schedule:
// a Source is single-use, so each run of one scenario needs its own.
func replay(cfg Config, scheds [][]traffic.Arrival) Config {
	cfg.Stations = append([]StationConfig(nil), cfg.Stations...)
	for i := range cfg.Stations {
		cfg.Stations[i].Source = traffic.FromSchedule(scheds[i])
	}
	return cfg
}

// randomSchedule generates a small valid event schedule over n stations
// within the first half of the horizon. Topology-edge events are only
// generated when no station carries a TXOP limit (the engine rejects
// that combination statically, like hidden topologies).
func randomSchedule(r *sim.Rand, n int, horizon sim.Time, txop bool) []ScheduledEvent {
	fp := func(v float64) *float64 { return &v }
	count := 1 + r.Intn(3)
	at := sim.Time(0)
	out := make([]ScheduledEvent, 0, count)
	for i := 0; i < count; i++ {
		at += sim.Time(r.Intn(int(horizon / (2 * sim.Time(count)))))
		ev := ScheduledEvent{At: at, Target: r.Intn(n+1) - 1}
		switch r.Intn(5) {
		case 0:
			ev.SetFER = fp(r.Float64() * 0.4)
		case 1:
			ev.SetBER = fp(r.Float64() * 1e-4)
		case 2:
			ev.SetDataRate = fp([]float64{0, 1e6, 2e6, 5.5e6, 11e6}[r.Intn(5)])
		case 3:
			ev.SetPowerDB = fp(r.Float64() * 12)
		default:
			if !txop && n >= 2 {
				a := r.Intn(n)
				b := r.Intn(n)
				for b == a {
					b = r.Intn(n)
				}
				ev.SetTopologyEdge = &TopologyEdge{A: a, B: b, Hears: r.Intn(2) == 0}
			} else {
				ev.SetFER = fp(r.Float64() * 0.2)
			}
		}
		out = append(out, ev)
	}
	return out
}

// offered counts the arrivals each station's schedule holds.
func offered(scheds [][]traffic.Arrival) []int {
	out := make([]int, len(scheds))
	for i, sched := range scheds {
		out[i] = len(sched)
	}
	return out
}

// TestPropertyInvariants runs many randomized configs to completion
// (no horizon) and asserts the engine's structural invariants:
//
//   - timestamp monotonicity: Arrived <= HOL <= Departed per frame,
//     and departures in order per station;
//   - frame conservation: every offered frame is delivered or dropped;
//   - retry counts below the PHY retry limit;
//   - per-station stats consistent with the frame lists.
func TestPropertyInvariants(t *testing.T) {
	const trials = 60
	r := sim.NewRand(0xbeef)
	horizon := sim.FromSeconds(0.25)
	for trial := 0; trial < trials; trial++ {
		cfg, scheds := randomConfig(r, horizon)
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := e.Run()
		want := offered(scheds)
		for s := range cfg.Stations {
			st := res.Stats[s]
			if got := len(res.Frames[s]); got != st.Delivered {
				t.Fatalf("trial %d station %d: %d frames vs Delivered=%d", trial, s, got, st.Delivered)
			}
			if st.Delivered+st.Dropped != want[s] {
				t.Fatalf("trial %d station %d: delivered %d + dropped %d != offered %d (cfg %+v)",
					trial, s, st.Delivered, st.Dropped, want[s], cfg.Channel)
			}
			if e.QueueLen(s) != 0 {
				t.Fatalf("trial %d station %d: %d frames stuck in queue", trial, s, e.QueueLen(s))
			}
			var bits int64
			prevDep := sim.Time(-1)
			for j, f := range res.Frames[s] {
				if f.Arrived > f.HOL || f.HOL > f.Departed {
					t.Fatalf("trial %d station %d frame %d: timestamps not monotone: arrived=%v hol=%v departed=%v",
						trial, s, j, f.Arrived, f.HOL, f.Departed)
				}
				if f.Departed < prevDep {
					t.Fatalf("trial %d station %d frame %d: departures out of order", trial, s, j)
				}
				prevDep = f.Departed
				if f.Retries < 0 || f.Retries >= cfg.Phy.RetryLimit {
					t.Fatalf("trial %d station %d frame %d: retries %d outside [0, %d)",
						trial, s, j, f.Retries, cfg.Phy.RetryLimit)
				}
				if f.Station != s {
					t.Fatalf("trial %d: frame filed under wrong station", trial)
				}
				bits += int64(f.Size) * 8
			}
			if bits != st.PayloadBits {
				t.Fatalf("trial %d station %d: payload bits %d != stats %d", trial, s, bits, st.PayloadBits)
			}
			if st.Attempts < st.Delivered {
				t.Fatalf("trial %d station %d: attempts %d < delivered %d", trial, s, st.Attempts, st.Delivered)
			}
			if res.End < prevDep {
				t.Fatalf("trial %d station %d: End %v before last departure %v", trial, s, res.End, prevDep)
			}
		}
	}
}

// TestPropertyHorizonBounds asserts the weaker conservation that holds
// when a horizon cuts the run short: delivered + dropped + queued +
// not-yet-arrived accounts for every offered frame, and nothing departs
// after the engine reports its end time.
func TestPropertyHorizonBounds(t *testing.T) {
	const trials = 40
	r := sim.NewRand(0xf00d)
	schedule := sim.FromSeconds(0.5)
	for trial := 0; trial < trials; trial++ {
		cfg, scheds := randomConfig(r, schedule)
		cfg.Horizon = sim.FromSeconds(0.1)
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := e.Run()
		if res.End > cfg.Horizon+sim.FromSeconds(0.1) {
			// A busy period may overshoot the horizon, but never by more
			// than one bounded exchange; 100ms is orders beyond that.
			t.Fatalf("trial %d: End %v far beyond horizon %v", trial, res.End, cfg.Horizon)
		}
		want := offered(scheds)
		for s := range cfg.Stations {
			st := res.Stats[s]
			accounted := st.Delivered + st.Dropped + e.QueueLen(s)
			if accounted > want[s] {
				t.Fatalf("trial %d station %d: accounted %d > offered %d", trial, s, accounted, want[s])
			}
			for _, f := range res.Frames[s] {
				if f.Departed > res.End {
					t.Fatalf("trial %d station %d: departure %v after End %v", trial, s, f.Departed, res.End)
				}
			}
		}
	}
}

// TestPropertyDeterminism asserts that re-running any randomized config
// with the same seed reproduces the identical result — the contract the
// replication engine's worker pool relies on.
func TestPropertyDeterminism(t *testing.T) {
	const trials = 20
	r := sim.NewRand(0xdead)
	horizon := sim.FromSeconds(0.2)
	for trial := 0; trial < trials; trial++ {
		cfg, scheds := randomConfig(r, horizon)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(replay(cfg, scheds))
		if err != nil {
			t.Fatal(err)
		}
		if a.End != b.End {
			t.Fatalf("trial %d: End %v vs %v", trial, a.End, b.End)
		}
		for s := range cfg.Stations {
			if a.Stats[s] != b.Stats[s] {
				t.Fatalf("trial %d station %d: stats %+v vs %+v", trial, s, a.Stats[s], b.Stats[s])
			}
			for j := range a.Frames[s] {
				if *a.Frames[s][j] != *b.Frames[s][j] {
					t.Fatalf("trial %d station %d frame %d differs", trial, s, j)
				}
			}
		}
	}
}

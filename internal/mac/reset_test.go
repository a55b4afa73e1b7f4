package mac

import (
	"testing"

	"csmabw/internal/sim"
)

// Engine.Reset promises that a reused engine is indistinguishable from
// a fresh one: same results to the byte (RNG draw order included), and
// near-zero allocations per reused run. These tests pin both halves.

// compareResults fails the test unless a and b are deep-equal: same end
// time, same per-station stats, same frame values in the same order.
func compareResults(t *testing.T, ctx string, a, b *Result) {
	t.Helper()
	if a.End != b.End {
		t.Fatalf("%s: End %v vs %v", ctx, a.End, b.End)
	}
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: %d vs %d stations", ctx, len(a.Stats), len(b.Stats))
	}
	for s := range a.Stats {
		if a.Stats[s] != b.Stats[s] {
			t.Fatalf("%s station %d: stats %+v vs %+v", ctx, s, a.Stats[s], b.Stats[s])
		}
		if len(a.Frames[s]) != len(b.Frames[s]) {
			t.Fatalf("%s station %d: %d vs %d frames", ctx, s, len(a.Frames[s]), len(b.Frames[s]))
		}
		for j := range a.Frames[s] {
			if *a.Frames[s][j] != *b.Frames[s][j] {
				t.Fatalf("%s station %d frame %d: %+v vs %+v", ctx, s, j, *a.Frames[s][j], *b.Frames[s][j])
			}
		}
	}
}

// TestResetEquivalence is the reuse-equivalence property test: an
// engine that already ran one randomized scenario and is Reset to a
// second, unrelated randomized scenario must reproduce the second
// scenario's fresh-engine result exactly. The first scenario varies per
// trial, so the reused state (arena fill, station count, queue
// capacities, scratch sizes) differs from the target shape in every way
// the generator can produce.
func TestResetEquivalence(t *testing.T) {
	const trials = 30
	r := sim.NewRand(0x5e7)
	horizon := sim.FromSeconds(0.15)
	for trial := 0; trial < trials; trial++ {
		cfgA, _ := randomConfig(r, horizon)
		cfgB, schedB := randomConfig(r, horizon)
		fresh, err := Run(cfgB)
		if err != nil {
			t.Fatalf("trial %d: fresh run: %v", trial, err)
		}
		e, err := New(cfgA)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e.Run()
		if err := e.Reset(replay(cfgB, schedB)); err != nil {
			t.Fatalf("trial %d: reset: %v", trial, err)
		}
		compareResults(t, "reused", fresh, e.Run())
	}
}

// TestResetSameConfigRepeats pins the simplest reuse contract — the one
// the batched replication path exercises thousands of times: Reset to
// the same config, run again, get the identical result, indefinitely.
func TestResetSameConfigRepeats(t *testing.T) {
	fresh, err := Run(hotScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(hotScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if round > 0 {
			if err := e.Reset(hotScenario(11)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		compareResults(t, "round", fresh, e.Run())
	}
}

// TestResetInvalidConfig asserts a Reset to a broken config surfaces
// the validation error (the engine is documented unusable afterwards).
func TestResetInvalidConfig(t *testing.T) {
	cfg := hotScenario(5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.Reset(Config{Phy: cfg.Phy}); err == nil {
		t.Fatal("Reset accepted a config with no stations")
	}
}

// TestResetRunAllocBound pins the point of engine reuse: once warmed,
// a Reset+Run replication must not allocate per frame — the arena,
// heap, queues, result buffers and scratch all come from the previous
// run. The budget is a small constant (closure boxing), orders of
// magnitude below the thousands of frames delivered. Sources are
// single-use, so each measured Reset gets a config built beforehand
// (builds); the measurement covers the engine's Reset and Run alone.
func TestResetRunAllocBound(t *testing.T) {
	e, err := New(hotScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run() // warm: grows arena, queues and result slices
	delivered := 0
	for _, st := range res.Stats {
		delivered += st.Delivered
	}
	if delivered < 1000 {
		t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
	}
	next := builds(hotScenario, 7)
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := e.Reset(next()); err != nil {
			t.Fatal(err)
		}
		e.Run()
	})
	if allocs > 16 {
		t.Fatalf("%.0f allocations per reused replication of %d frames, want <= 16", allocs, delivered)
	}
}

// scheduledHotScenario is hotScenario carrying a station-parameter
// event schedule — channel-wide FER, one station's rate, a power bump —
// for the alloc bounds and the reuse equivalence. Topology-edge events
// are pinned separately: TestResetScheduledEquivalence appends a
// hearing-graph cut, and TestHotPathAllocBound's edge-events input
// bounds the allocations of a run that hides and re-links a pair.
func scheduledHotScenario(seed int64) Config {
	cfg := hotScenario(seed)
	fer, rate, pow := 0.15, 5.5e6, 6.0
	cfg.Schedule = []ScheduledEvent{
		{At: 500 * sim.Millisecond, Target: -1, SetFER: &fer},
		{At: sim.Second, Target: 1, SetDataRate: &rate},
		{At: 2 * sim.Second, Target: 0, SetPowerDB: &pow},
	}
	return cfg
}

// TestResetScheduledEquivalence extends the reuse contract to event
// schedules: Reset must rewind the event cursor and restore the
// pre-event parameters (error model, rates, topology clone), so a
// reused engine replays the schedule byte-identically to a fresh one.
// The schedule includes a hearing-graph cut, so the recycled topology
// clone is exercised too.
func TestResetScheduledEquivalence(t *testing.T) {
	build := func() Config {
		cfg := scheduledHotScenario(23)
		cfg.Schedule = append(cfg.Schedule,
			ScheduledEvent{At: 2500 * sim.Millisecond, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}})
		return cfg
	}
	fresh, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats[0].ChannelErrors+fresh.Stats[1].ChannelErrors == 0 {
		t.Fatal("schedule fixture inert: no channel errors despite FER event")
	}
	e, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if round > 0 {
			if err := e.Reset(build()); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		compareResults(t, "scheduled round", fresh, e.Run())
	}
	// And a reset back to a schedule-free config sheds the events.
	want, err := Run(hotScenario(23))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(hotScenario(23)); err != nil {
		t.Fatal(err)
	}
	compareResults(t, "schedule shed", want, e.Run())
}

// TestResetScheduledAllocBound extends the ≤16-allocation reset budget
// to scheduled-event configs: the schedule slice and the topology clone
// must be recycled across Resets, not reallocated per replication.
func TestResetScheduledAllocBound(t *testing.T) {
	e, err := New(scheduledHotScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run() // warm
	delivered := 0
	for _, st := range res.Stats {
		delivered += st.Delivered
	}
	if delivered < 1000 {
		t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
	}
	next := builds(scheduledHotScenario, 7)
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := e.Reset(next()); err != nil {
			t.Fatal(err)
		}
		e.Run()
	})
	if allocs > 16 {
		t.Fatalf("%.0f allocations per scheduled reused replication of %d frames, want <= 16", allocs, delivered)
	}
}

// allocRuns is the measured run count of the reset alloc bounds.
const allocRuns = 5

// builds returns a function yielding a fresh build(seed) per call, all
// built up front: one for testing.AllocsPerRun's warm-up call and one
// per measured run, so building the single-use sources stays outside
// the measurement.
func builds(build func(int64) Config, seed int64) func() Config {
	cfgs := make([]Config, allocRuns+1)
	for i := range cfgs {
		cfgs[i] = build(seed)
	}
	next := 0
	return func() Config {
		next++
		return cfgs[next-1]
	}
}

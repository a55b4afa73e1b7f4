package mac

import (
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func TestRetryLimitDropsFrames(t *testing.T) {
	// Retry limit 1: the first collision drops the frame. Two stations
	// with simultaneous idle arrivals collide deterministically
	// (both take immediate access), so both frames are dropped.
	p := phy.B11()
	p.RetryLimit = 1
	arr := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	res := runOne(t, Config{
		Phy:      p,
		Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}, {Source: traffic.FromSchedule(arr)}},
		Seed:     1,
	})
	totalDropped := res.Stats[0].Dropped + res.Stats[1].Dropped
	totalDelivered := res.Stats[0].Delivered + res.Stats[1].Delivered
	if totalDropped != 2 || totalDelivered != 0 {
		t.Errorf("dropped %d delivered %d, want 2/0", totalDropped, totalDelivered)
	}
}

func TestSimultaneousIdleArrivalsCollide(t *testing.T) {
	// The same scenario with the normal retry limit: both frames are
	// eventually delivered, each with at least one recorded collision.
	arr := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	res := runOne(t, Config{
		Phy:      phy.B11(),
		Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}, {Source: traffic.FromSchedule(arr)}},
		Seed:     2,
	})
	if res.Stats[0].Collisions == 0 || res.Stats[1].Collisions == 0 {
		t.Errorf("collisions = %d/%d, want >= 1 each",
			res.Stats[0].Collisions, res.Stats[1].Collisions)
	}
	if res.Stats[0].Delivered != 1 || res.Stats[1].Delivered != 1 {
		t.Errorf("delivered %d/%d", res.Stats[0].Delivered, res.Stats[1].Delivered)
	}
}

func TestCollisionCostsAtLeastFrameAirtime(t *testing.T) {
	// After the engineered collision, neither frame can depart before
	// the collision busy period plus a successful exchange.
	p := phy.B11()
	arr := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	res := runOne(t, Config{
		Phy:      p,
		Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}, {Source: traffic.FromSchedule(arr)}},
		Seed:     3,
	})
	minDepart := sim.Millisecond + p.DIFS + 2*p.DataTxTime(1500)
	for s := range res.Frames {
		for _, f := range res.Frames[s] {
			if f.Departed < minDepart {
				t.Errorf("station %d departed %v, impossibly before %v", s, f.Departed, minDepart)
			}
		}
	}
}

func TestPostBackoffThenIdleArrival(t *testing.T) {
	// A packet, a long silence (post-backoff expires), then another
	// packet: the second also gets immediate access.
	p := phy.B11()
	arr := []traffic.Arrival{
		{At: sim.Millisecond, Size: 1500, Index: -1},
		{At: 500 * sim.Millisecond, Size: 1500, Index: -1},
	}
	res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}}, Seed: 4})
	want := p.DIFS + p.DataTxTime(1500)
	for i, f := range res.Frames[0] {
		if f.AccessDelay() != want {
			t.Errorf("frame %d access delay %v, want immediate %v", i, f.AccessDelay(), want)
		}
	}
}

func TestArrivalDuringPostBackoffInheritsCountdown(t *testing.T) {
	// A packet arriving shortly after a transmission, while the sender
	// is still in post-backoff, must NOT get immediate access: its
	// access delay exceeds DIFS + airtime whenever any post-backoff
	// slots remain.
	p := phy.B11()
	// The first exchange ends ~2.67ms in (DIFS + DATA + SIFS + ACK) and
	// post-backoff runs for up to CWMin slots (620us) after a further
	// DIFS. A second arrival at 2.8ms lands inside that window for most
	// draws.
	arr := []traffic.Arrival{
		{At: sim.Millisecond, Size: 1500, Index: -1},
		{At: 2800 * sim.Microsecond, Size: 1500, Index: -1},
	}
	sawInherited := false
	for seed := int64(0); seed < 30; seed++ {
		res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}}, Seed: seed})
		if len(res.Frames[0]) != 2 {
			t.Fatalf("seed %d: delivered %d", seed, len(res.Frames[0]))
		}
		d := res.Frames[0][1].AccessDelay()
		base := p.DIFS + p.DataTxTime(1500)
		if d > base {
			sawInherited = true
		}
		// The inherited countdown can never exceed the full CWMin window.
		if d > base+sim.Time(p.CWMin)*p.Slot+p.EIFS() {
			t.Errorf("seed %d: delay %v beyond any legal countdown", seed, d)
		}
	}
	if !sawInherited {
		t.Error("no seed showed an inherited post-backoff countdown (suspicious)")
	}
}

func TestEIFSAfterOverheardCollision(t *testing.T) {
	// Three stations: two collide at t=1ms; the third (whose packet
	// arrives during the collision) must defer with EIFS, i.e. its
	// frame cannot start before busyEnd + EIFS.
	p := phy.B11()
	collide := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	bystander := []traffic.Arrival{{At: sim.Millisecond + 500*sim.Microsecond, Size: 100, Index: -1}}
	res := runOne(t, Config{
		Phy: p,
		Stations: []StationConfig{
			{Source: traffic.FromSchedule(collide)}, {Source: traffic.FromSchedule(collide)}, {Source: traffic.FromSchedule(bystander)},
		},
		Seed: 5,
	})
	busyEnd := sim.Millisecond + p.DIFS + p.DataTxTime(1500)
	f := res.Frames[2][0]
	earliest := busyEnd + p.EIFS() + p.DataTxTime(100)
	if f.Departed < earliest {
		t.Errorf("bystander departed %v, before EIFS-deferred earliest %v", f.Departed, earliest)
	}
}

func TestHeterogeneousPacketSizes(t *testing.T) {
	// Mixed sizes on one station: every frame's access delay must be at
	// least its own airtime, and total delivered bits must match offered.
	var arr []traffic.Arrival
	sizes := []int{40, 576, 1000, 1500}
	for i := 0; i < 40; i++ {
		arr = append(arr, traffic.Arrival{
			At: sim.Time(i) * 3 * sim.Millisecond, Size: sizes[i%4], Index: -1,
		})
	}
	p := phy.B11()
	res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Source: traffic.FromSchedule(arr)}}, Seed: 6})
	var bits int64
	for _, f := range res.Frames[0] {
		if f.AccessDelay() < p.DataTxTime(f.Size) {
			t.Fatalf("frame of %dB: delay %v below airtime", f.Size, f.AccessDelay())
		}
		bits += int64(f.Size) * 8
	}
	var offered int64
	for _, a := range arr {
		offered += int64(a.Size) * 8
	}
	if bits != offered {
		t.Errorf("delivered %d bits of %d offered", bits, offered)
	}
}

func TestG54Profile(t *testing.T) {
	// The engine runs unchanged on the 802.11g profile and carries far
	// more than 802.11b.
	mk := func(p phy.Params) float64 {
		res := runOne(t, Config{
			Phy:      p,
			Stations: []StationConfig{{Source: traffic.NewCBR(60e6, 1500, 0, sim.Second)}},
			Seed:     7, Horizon: sim.Second,
		})
		return res.Throughput(0, 0, sim.Second)
	}
	b := mk(phy.B11())
	g := mk(phy.G54())
	if g < 3*b {
		t.Errorf("802.11g carried %.1f Mb/s vs 802.11b %.1f — expected >3x", g/1e6, b/1e6)
	}
}

func TestQueueGrowsUnderOverload(t *testing.T) {
	// Offered 12 Mb/s on a ~6 Mb/s link: the queue must build up. Track
	// via the OnDepart hook on the sender's own queue.
	maxQ := 0
	cfg := Config{
		Phy:      phy.B11(),
		Stations: []StationConfig{{Source: traffic.NewCBR(12e6, 1500, 0, sim.Second)}},
		Seed:     8,
		Horizon:  sim.Second,
		OnDepart: nil,
	}
	cfg.OnDepart = func(e *Engine, f *Frame) {
		if q := e.QueueLen(0); q > maxQ {
			maxQ = q
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if maxQ < 50 {
		t.Errorf("max queue %d under 2x overload — expected substantial buildup", maxQ)
	}
}

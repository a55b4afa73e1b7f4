package path

import (
	"math"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func TestFIFOHopNoCross(t *testing.T) {
	h := FIFOHop{CapacityBps: 10e6}
	// Slow train: departures = arrivals + service time.
	tr := traffic.Collect(traffic.NewTrain(5, 10*sim.Millisecond, 1500, sim.Second))
	out, err := h.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("transited %d packets", len(out))
	}
	svc := sim.FromSeconds(1500 * 8 / 10e6)
	for i, a := range out {
		want := tr[i].At + svc
		if a.At != want {
			t.Errorf("packet %d departs %v, want %v", i, a.At, want)
		}
		if !a.Probe || a.Index != i {
			t.Errorf("packet %d lost its identity: %+v", i, a)
		}
	}
}

func TestFIFOHopSaturationSpacing(t *testing.T) {
	// Back-to-back packets leave spaced by the service time: the
	// classic capacity-revealing dispersion.
	h := FIFOHop{CapacityBps: 10e6}
	tr := traffic.Collect(traffic.NewTrain(10, 0, 1500, sim.Second))
	out, err := h.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := sim.FromSeconds(1500 * 8 / 10e6)
	for i := 1; i < len(out); i++ {
		if g := out[i].At - out[i-1].At; g != svc {
			t.Errorf("gap %d = %v, want %v", i, g, svc)
		}
	}
}

func TestFIFOHopCrossDelaysButStaysLocal(t *testing.T) {
	quiet := FIFOHop{CapacityBps: 10e6, Seed: 1}
	loaded := FIFOHop{CapacityBps: 10e6, CrossBps: 6e6, CrossSize: 1500, Seed: 1}
	tr := traffic.Collect(traffic.NewTrain(20, 2*sim.Millisecond, 1500, sim.Second))
	a, err := quiet.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(tr) {
		t.Fatalf("cross-traffic leaked into the output: %d packets", len(b))
	}
	var sumA, sumB sim.Time
	for i := range a {
		sumA += a[i].At
		sumB += b[i].At
	}
	if sumB <= sumA {
		t.Error("cross-traffic did not delay the transit flow")
	}
}

func TestFIFOHopErrors(t *testing.T) {
	if _, err := (FIFOHop{}).Transit(nil, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	h := FIFOHop{CapacityBps: 1e6, CrossBps: 1e6}
	if _, err := h.Transit(nil, 0); err == nil {
		t.Error("cross without size accepted")
	}
	bad := []traffic.Arrival{{At: 5, Size: 1}, {At: 1, Size: 1}}
	if _, err := (FIFOHop{CapacityBps: 1e6}).Transit(bad, 0); err == nil {
		t.Error("unordered schedule accepted")
	}
}

func TestWLANHopTransit(t *testing.T) {
	h := WLANHop{Seed: 2}
	tr := traffic.Collect(traffic.NewTrain(10, 2*sim.Millisecond, 1500, sim.Second))
	out, err := h.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("transited %d packets", len(out))
	}
	p := phy.B11()
	for i, a := range out {
		if a.At < tr[i].At+p.DataTxTime(1500) {
			t.Errorf("packet %d departed %v, before airtime after arrival %v", i, a.At, tr[i].At)
		}
	}
}

func TestWLANHopContention(t *testing.T) {
	quiet := WLANHop{Seed: 3}
	busy := WLANHop{Seed: 3}
	busy.Contenders = append(busy.Contenders, WLANContender{RateBps: 4e6, Size: 1500})
	tr := traffic.Collect(traffic.NewTrain(20, sim.Millisecond, 1500, sim.Second))
	a, err := quiet.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := busy.Transit(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b[len(b)-1].At <= a[len(a)-1].At {
		t.Error("contention did not delay the transit flow")
	}
}

func TestPathComposition(t *testing.T) {
	// Wired 10 Mb/s hop feeding a WLAN hop: the output dispersion is
	// dominated by the slower (WLAN) hop.
	p := Path{Hops: []Hop{
		FIFOHop{CapacityBps: 10e6, Seed: 4},
		WLANHop{Seed: 5},
	}}
	g, err := p.MeasureDispersion(20, 9e6, 1500, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Probing at 9 Mb/s saturates the ~6 Mb/s WLAN hop: gO tracks the
	// WLAN per-packet service (~1.9-2.1 ms for 1500B with backoff), not
	// the wired 1.2ms.
	if g < 0.0017 || g > 0.0026 {
		t.Errorf("path gO = %.4f ms, expected WLAN-dominated ~1.9-2.1ms", g*1e3)
	}
}

func TestPathOrderMatters(t *testing.T) {
	// A narrow FIFO after the WLAN re-spaces packets; before it, the
	// WLAN re-randomises them. Both must run without error and give
	// positive dispersion.
	a := Path{Hops: []Hop{FIFOHop{CapacityBps: 3e6, Seed: 7}, WLANHop{Seed: 8}}}
	b := Path{Hops: []Hop{WLANHop{Seed: 8}, FIFOHop{CapacityBps: 3e6, Seed: 7}}}
	ga, err := a.MeasureDispersion(10, 8e6, 1500, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.MeasureDispersion(10, 8e6, 1500, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ga <= 0 || gb <= 0 {
		t.Errorf("dispersions %g / %g", ga, gb)
	}
	// The tight FIFO (3 Mb/s -> 4ms service for 1500B) bounds the exit
	// dispersion from below in the WLAN->FIFO order.
	svc := 1500 * 8 / 3e6
	if gb < svc*0.95 {
		t.Errorf("narrow last hop: gO %.4fms below its service time %.4fms", gb*1e3, svc*1e3)
	}
}

func TestPathErrors(t *testing.T) {
	if _, err := (Path{}).Transit(nil, 0); err == nil {
		t.Error("empty path accepted")
	}
	p := Path{Hops: []Hop{FIFOHop{CapacityBps: 1e6}}}
	if _, err := p.MeasureDispersion(1, 1e6, 100, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := p.MeasureDispersion(5, 0, 100, 1, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := p.MeasureDispersion(5, 1e6, 100, 0, 0); err == nil {
		t.Error("zero reps accepted")
	}
}

// The multi-hop version of the paper's core claim: inserting a WLAN hop
// into a wired path makes short-train dispersion at the exit measure
// the WLAN's achievable throughput, not the wired bottleneck capacity.
func TestWiredPlusWLANMeasuresWLANShare(t *testing.T) {
	wired := Path{Hops: []Hop{FIFOHop{CapacityBps: 8e6, Seed: 10}}}
	mixed := Path{Hops: []Hop{
		FIFOHop{CapacityBps: 8e6, Seed: 10},
		WLANHop{Seed: 11, Contenders: []WLANContender{{RateBps: 4e6, Size: 1500}}},
	}}
	gWired, err := wired.MeasureDispersion(20, 12e6, 1500, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	gMixed, err := mixed.MeasureDispersion(20, 12e6, 1500, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	rWired := 1500 * 8 / gWired
	rMixed := 1500 * 8 / gMixed
	if math.Abs(rWired-8e6) > 0.1*8e6 {
		t.Errorf("wired-only estimate %.2f Mb/s, want ~8 (capacity)", rWired/1e6)
	}
	if rMixed >= 6e6 {
		t.Errorf("mixed-path estimate %.2f Mb/s did not drop to the WLAN share", rMixed/1e6)
	}
}

package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
)

// bits is the total payload of a schedule in bits.
func bits(sched []Arrival) int64 {
	var b int64
	for _, a := range sched {
		b += int64(a.Size) * 8
	}
	return b
}

func TestPoissonRate(t *testing.T) {
	r := sim.NewRand(1)
	const rate, size = 4e6, 1500
	sched := Collect(NewPoisson(r, rate, size, 0, 10*sim.Second))
	if err := Validate(sched); err != nil {
		t.Fatal(err)
	}
	got := float64(bits(sched)) / 10
	if math.Abs(got-rate) > 0.05*rate {
		t.Errorf("offered rate %.2f Mb/s, want ~%.2f", got/1e6, rate/1e6)
	}
}

func TestPoissonExponentialGaps(t *testing.T) {
	r := sim.NewRand(2)
	sched := Collect(NewPoisson(r, 2e6, 1000, 0, 20*sim.Second))
	if len(sched) < 1000 {
		t.Fatalf("only %d arrivals", len(sched))
	}
	// Coefficient of variation of exponential gaps is 1.
	var gaps []float64
	for i := 1; i < len(sched); i++ {
		gaps = append(gaps, (sched[i].At - sched[i-1].At).Seconds())
	}
	mean, varr := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varr += (g - mean) * (g - mean)
	}
	varr /= float64(len(gaps))
	cv := math.Sqrt(varr) / mean
	if math.Abs(cv-1) > 0.1 {
		t.Errorf("gap CV = %.3f, want ~1 (exponential)", cv)
	}
}

func TestPoissonWindow(t *testing.T) {
	r := sim.NewRand(3)
	start, end := 2*sim.Second, 3*sim.Second
	for _, a := range Collect(NewPoisson(r, 5e6, 1500, start, end)) {
		if a.At <= start || a.At >= end {
			t.Fatalf("arrival %v outside (%v, %v)", a.At, start, end)
		}
		if a.Probe || a.Index != -1 {
			t.Fatal("cross-traffic arrival marked as probe")
		}
	}
}

func TestCBRSpacing(t *testing.T) {
	sched := Collect(NewCBR(1.2e6, 1500, 0, sim.Second))
	want := sim.FromSeconds(1500 * 8 / 1.2e6)
	for i := 1; i < len(sched); i++ {
		if g := sched[i].At - sched[i-1].At; g != want {
			t.Fatalf("gap %d = %v, want %v", i, g, want)
		}
	}
	if got := len(sched); got != 100 {
		t.Errorf("CBR packet count = %d, want 100", got)
	}
}

func TestTrain(t *testing.T) {
	tr := Collect(NewTrain(50, 100*sim.Microsecond, 1500, sim.Second))
	if len(tr) != 50 {
		t.Fatalf("len = %d", len(tr))
	}
	for i, a := range tr {
		if !a.Probe || a.Index != i || a.Size != 1500 {
			t.Fatalf("packet %d malformed: %+v", i, a)
		}
		if a.At != sim.Second+sim.Time(i)*100*sim.Microsecond {
			t.Fatalf("packet %d at %v", i, a.At)
		}
	}
}

func TestTrainAtRate(t *testing.T) {
	// A marked CBR flow is a probing train at its rate (the steady-state
	// probing flow): 1500B at 6 Mb/s -> gI = 2ms (Section 5.3).
	tr := Collect(Marked(NewCBR(6e6, 1500, 0, 20*sim.Millisecond)))
	if len(tr) != 10 {
		t.Fatalf("len = %d, want 10", len(tr))
	}
	for i, a := range tr {
		if a.At != sim.Time(i)*2*sim.Millisecond || !a.Probe || a.Index != i {
			t.Fatalf("packet %d: %+v, want probe #%d at %v", i, a, i, sim.Time(i)*2*sim.Millisecond)
		}
	}
}

func TestPacketPair(t *testing.T) {
	pp := Collect(NewTrain(2, 0, 1500, sim.Second))
	if len(pp) != 2 {
		t.Fatalf("pair length %d", len(pp))
	}
	if pp[0].At != pp[1].At {
		t.Errorf("pair not back to back: %v vs %v", pp[0].At, pp[1].At)
	}
	if pp[0].Index != 0 || pp[1].Index != 1 {
		t.Error("pair indices wrong")
	}
}

func TestMergeOrderedAndStable(t *testing.T) {
	a := Collect(NewTrain(3, sim.Millisecond, 100, 0))
	b := Collect(NewPoisson(sim.NewRand(4), 1e6, 500, 0, 5*sim.Millisecond))
	m := Collect(MergeSources(FromSchedule(a), FromSchedule(b)))
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(a)+len(b) {
		t.Fatalf("merged %d, want %d", len(m), len(a)+len(b))
	}
	// Stability: a probe and a cross packet at the same instant keep
	// source order (probe first here).
	c := []Arrival{{At: 42, Size: 200, Index: -1}}
	m2 := Collect(MergeSources(NewTrain(1, 0, 100, 42), FromSchedule(c)))
	if !m2[0].Probe || m2[1].Probe {
		t.Error("MergeSources not stable for simultaneous arrivals")
	}
	// A train whose every packet collides with a CBR instant: at each
	// shared instant the probe, listed first, stays ahead.
	m3 := Collect(MergeSources(
		NewTrain(10, sim.Millisecond, 1500, 0),
		NewCBR(1500*8*1000, 1500, 0, 10*sim.Millisecond))) // 1ms gap, same instants
	if len(m3) != 20 {
		t.Fatalf("merged %d, want 20", len(m3))
	}
	for i := 0; i < len(m3); i += 2 {
		p, x := m3[i], m3[i+1]
		if !p.Probe || x.Probe || p.At != x.At || p.Index != i/2 {
			t.Fatalf("arrivals %d,%d: %+v, %+v; want probe #%d then cross at one instant", i, i+1, p, x, i/2)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []struct {
		name  string
		sched []Arrival
	}{
		{"unordered", []Arrival{{At: 5, Size: 1}, {At: 3, Size: 1}}},
		{"zero size", []Arrival{{At: 0, Size: 0}}},
		{"negative time", []Arrival{{At: -1, Size: 10}}},
	}
	for _, tt := range bad {
		if Validate(tt.sched) == nil {
			t.Errorf("%s: Validate accepted bad schedule", tt.name)
		}
	}
	if Validate(nil) != nil {
		t.Error("empty schedule should validate")
	}
}

func TestOfferedLoadRoundTrip(t *testing.T) {
	p := phy.B11()
	for _, erl := range []float64{0.1, 0.5, 1.0} {
		rate := RateForLoad(p, erl, 1500)
		got := OfferedLoad(p, rate, 1500)
		if math.Abs(got-erl) > 1e-9 {
			t.Errorf("round trip %.2f Erlang -> %.2f", erl, got)
		}
	}
}

func TestOfferedLoadZero(t *testing.T) {
	if OfferedLoad(phy.B11(), 0, 1500) != 0 {
		t.Error("zero rate should offer zero load")
	}
}

func TestOneErlangNearCapacity(t *testing.T) {
	p := phy.B11()
	rate := RateForLoad(p, 1.0, 1500)
	// 1 Erlang should be close to the single-station saturation
	// throughput.
	if c := p.MaxThroughput(1500); math.Abs(rate-c) > 0.01*c {
		t.Errorf("1 Erlang = %.2f Mb/s but capacity = %.2f Mb/s", rate/1e6, c/1e6)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"poisson zero rate": func() { NewPoisson(sim.NewRand(1), 0, 100, 0, 1) },
		"poisson NaN rate":  func() { NewPoisson(sim.NewRand(1), math.NaN(), 100, 0, 1) },
		"poisson +Inf rate": func() { NewPoisson(sim.NewRand(1), math.Inf(1), 100, 0, 1) },
		"cbr zero size":     func() { NewCBR(1e6, 0, 0, 1) },
		"cbr NaN rate":      func() { NewCBR(math.NaN(), 1500, 0, 1) },
		"cbr +Inf rate":     func() { NewCBR(math.Inf(1), 1500, 0, 1) },
		"cbr -Inf rate":     func() { NewCBR(math.Inf(-1), 1500, 0, 1) },
		"cbr sub-ns gap":    func() { NewCBR(1e15, 1500, 0, 1) },
		"onoff +Inf peak":   func() { NewOnOff(sim.NewRand(1), math.Inf(1), 100, 1, 1, 0, 1) },
		"onoff sub-ns gap":  func() { NewOnOff(sim.NewRand(1), 1e15, 100, 1, 1, 0, 1) },
		"empty train":       func() { NewTrain(0, 0, 100, 0) },
		"negative gap":      func() { NewTrain(2, -1, 100, 0) },
		"negative load":     func() { RateForLoad(phy.B11(), -1, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: merged schedules always validate, whatever the inputs' order.
func TestMergeProperty(t *testing.T) {
	r := sim.NewRand(77)
	f := func(seedA, seedB uint16) bool {
		a := NewPoisson(r.Split(uint64(seedA)), 1e6+float64(seedA), 500, 0, 100*sim.Millisecond)
		b := NewPoisson(r.Split(uint64(seedB)+1e4), 2e6, 1000, 0, 100*sim.Millisecond)
		return Validate(Collect(MergeSources(a, b))) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkProbe(t *testing.T) {
	sched := Collect(NewCBR(1e6, 500, 0, 10*sim.Millisecond))
	marked := Collect(Marked(FromSchedule(sched)))
	if len(marked) != len(sched) {
		t.Fatalf("length changed: %d vs %d", len(marked), len(sched))
	}
	for i, a := range marked {
		if !a.Probe || a.Index != i {
			t.Fatalf("packet %d not marked: %+v", i, a)
		}
		if a.At != sched[i].At || a.Size != sched[i].Size {
			t.Fatalf("packet %d moved or resized: %+v vs %+v", i, a, sched[i])
		}
	}
	// Marking stamps copies; the wrapped schedule is untouched.
	if sched[0].Probe {
		t.Error("Marked mutated its input")
	}
}

func TestOnOffMeanRate(t *testing.T) {
	r := sim.NewRand(31)
	on, off := 20*sim.Millisecond, 20*sim.Millisecond
	sched := Collect(NewOnOff(r, 8e6, 1500, on, off, 0, 30*sim.Second))
	if err := Validate(sched); err != nil {
		t.Fatal(err)
	}
	got := float64(bits(sched)) / 30
	want := 8e6 * 0.5 // 50% duty cycle
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("on/off mean rate %.2f Mb/s, want ~%.2f", got/1e6, want/1e6)
	}
}

func TestOnOffBurstierThanPoisson(t *testing.T) {
	// Same average rate; the on/off gaps' coefficient of variation must
	// exceed the Poisson process's (which is 1).
	cv := func(sched []Arrival) float64 {
		var gaps []float64
		for i := 1; i < len(sched); i++ {
			gaps = append(gaps, (sched[i].At - sched[i-1].At).Seconds())
		}
		mean, varr := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			varr += (g - mean) * (g - mean)
		}
		return math.Sqrt(varr/float64(len(gaps))) / mean
	}
	r := sim.NewRand(32)
	bursty := Collect(NewOnOff(r, 8e6, 1500, 10*sim.Millisecond, 30*sim.Millisecond, 0, 20*sim.Second))
	poisson := Collect(NewPoisson(r, 2e6, 1500, 0, 20*sim.Second))
	if cv(bursty) <= cv(poisson)*1.2 {
		t.Errorf("on/off CV %.2f not clearly above Poisson CV %.2f", cv(bursty), cv(poisson))
	}
}

func TestOnOffPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero on-mean")
		}
	}()
	NewOnOff(sim.NewRand(1), 1e6, 100, 0, 1, 0, 1)
}

package probe

import (
	"errors"
	"math"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/sim"
)

func quietLink(seed int64) Link {
	return Link{Seed: seed, WarmUp: 50 * sim.Millisecond}
}

func TestMeasureTrainNoCross(t *testing.T) {
	// No cross-traffic, slow probing: gO should equal gI.
	l := quietLink(1)
	ts, err := MeasureTrain(l, 20, 1e6, 5)
	if err != nil {
		t.Fatal(err)
	}
	gI := ts.GI.Seconds()
	if math.Abs(ts.MeanGO()-gI) > 0.02*gI {
		t.Errorf("gO = %g, want ~gI = %g", ts.MeanGO(), gI)
	}
	if est, err := ts.RateEstimate(); err != nil || math.Abs(est-1e6) > 0.05e6 {
		t.Errorf("rate estimate %.2f Mb/s (err %v), want ~1", est/1e6, err)
	}
}

func TestMeasureTrainSaturatedNoCross(t *testing.T) {
	// Probing far above capacity with no cross-traffic: the dispersion
	// estimate approaches the link's maximum throughput.
	l := quietLink(2)
	ts, err := MeasureTrain(l, 50, 20e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := phy.B11().MaxThroughput(1500)
	est, err := ts.RateEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-c) > 0.15*c {
		t.Errorf("saturated estimate %.2f Mb/s, want ~%.2f", est/1e6, c/1e6)
	}
}

func TestMeasureTrainAllPacketsAccounted(t *testing.T) {
	l := quietLink(3)
	l.Contenders = []Flow{{RateBps: 2e6, Size: 1500}}
	ts, err := MeasureTrain(l, 30, 5e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range ts.Samples {
		if len(s.Departures) != 30 {
			t.Fatalf("rep %d has %d departure slots", r, len(s.Departures))
		}
		delivered := 0
		for i, d := range s.Departures {
			if d >= 0 {
				delivered++
				if s.AccessDelays[i] < 0 {
					t.Fatalf("rep %d packet %d delivered but no delay", r, i)
				}
			}
		}
		if delivered < 28 {
			t.Errorf("rep %d delivered only %d/30", r, delivered)
		}
	}
}

func TestDeparturesMonotone(t *testing.T) {
	l := quietLink(4)
	l.Contenders = []Flow{{RateBps: 3e6, Size: 1500}}
	ts, err := MeasureTrain(l, 25, 8e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ts.Samples {
		prev := sim.Time(-1)
		for _, d := range s.Departures {
			if d < 0 {
				continue
			}
			if d <= prev {
				t.Fatal("departures not strictly increasing")
			}
			prev = d
		}
	}
}

func TestQueueSamplingWithContender(t *testing.T) {
	l := quietLink(5)
	l.Contenders = []Flow{{RateBps: 4e6, Size: 1500}}
	ts, err := MeasureTrain(l, 10, 5e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ts.Samples {
		if len(s.QueueAtDepart) == 0 {
			t.Fatal("no queue samples with a contender configured")
		}
		for _, q := range s.QueueAtDepart {
			if q < 0 {
				t.Fatal("negative queue sample")
			}
		}
	}
	// Without contenders: no sampling.
	ts2, err := MeasureTrain(quietLink(6), 5, 5e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts2.Samples[0].QueueAtDepart) != 0 {
		t.Error("queue samples present without contenders")
	}
}

func TestDelaysByIndexShape(t *testing.T) {
	l := quietLink(7)
	ts, err := MeasureTrain(l, 15, 5e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := ts.DelaysByIndex()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if len(row) == 0 || len(row) > 15 {
			t.Fatalf("row length %d", len(row))
		}
		for _, d := range row {
			if d <= 0 {
				t.Fatal("non-positive delay leaked through filter")
			}
		}
	}
}

func TestInterDepartureGaps(t *testing.T) {
	l := quietLink(8)
	ts, err := MeasureTrain(l, 10, 2e6, 2)
	if err != nil {
		t.Fatal(err)
	}
	gaps := ts.InterDepartureGaps()
	for _, row := range gaps {
		if len(row) != 9 {
			t.Errorf("gap row length %d, want 9", len(row))
		}
		for _, g := range row {
			if g <= 0 {
				t.Error("non-positive inter-departure gap")
			}
		}
	}
}

func TestMeasurePairNoCrossNearCapacity(t *testing.T) {
	// Packet pair with an idle channel measures close to the maximum
	// throughput (no contention: back-to-back service).
	est, err := MeasurePair(quietLink(9), 20)
	if err != nil {
		t.Fatal(err)
	}
	// Pair dispersion = full exchange cycle per packet.
	c := phy.B11().MaxThroughput(1500)
	if est < 0.7*c || est > 1.5*c {
		t.Errorf("pair estimate %.2f Mb/s vs capacity %.2f", est/1e6, c/1e6)
	}
}

func TestMeasurePairOverestimatesUnderContention(t *testing.T) {
	// Section 7.3: with contending traffic the pair estimate exceeds the
	// steady-state achievable throughput.
	l := quietLink(10)
	l.Contenders = []Flow{{RateBps: 4e6, Size: 1500}}
	pair, err := MeasurePair(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	long, err := MeasureTrain(l, 150, 20e6, 6)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := long.RateEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if pair <= steady {
		t.Errorf("pair %.2f Mb/s should overestimate long-train %.2f", pair/1e6, steady/1e6)
	}
}

func TestMeasureSteadyStateIdentityRegion(t *testing.T) {
	// Probing below the achievable throughput: ro == ri.
	l := quietLink(11)
	l.Contenders = []Flow{{RateBps: 2e6, Size: 1500}}
	ss, err := MeasureSteadyState(l, 1.5e6, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss.ProbeRate-1.5e6) > 0.1e6 {
		t.Errorf("ro = %.2f Mb/s, want ~1.5", ss.ProbeRate/1e6)
	}
	if len(ss.CrossRates) != 1 {
		t.Fatalf("cross rates: %v", ss.CrossRates)
	}
	if math.Abs(ss.CrossRates[0]-2e6) > 0.25e6 {
		t.Errorf("cross carried %.2f Mb/s, want ~2", ss.CrossRates[0]/1e6)
	}
}

func TestMeasureSteadyStateSaturation(t *testing.T) {
	// Probing far above the fair share: ro flattens near the fair share,
	// which with one saturated-ish contender sits near half capacity.
	l := quietLink(12)
	l.Contenders = []Flow{{RateBps: 8e6, Size: 1500}}
	ss, err := MeasureSteadyState(l, 10e6, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := phy.B11().MaxThroughput(1500)
	if ss.ProbeRate < 0.3*c || ss.ProbeRate > 0.7*c {
		t.Errorf("saturated ro = %.2f Mb/s, want near fair share ~%.2f", ss.ProbeRate/1e6, c/2/1e6)
	}
}

func TestMeasureSteadyStateFIFOCross(t *testing.T) {
	l := quietLink(13)
	l.FIFOCross = []Flow{{RateBps: 1.5e6, Size: 1500}}
	ss, err := MeasureSteadyState(l, 1e6, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ss.FIFORate < 1.2e6 || ss.FIFORate > 1.8e6 {
		t.Errorf("FIFO cross carried %.2f Mb/s, want ~1.5", ss.FIFORate/1e6)
	}
	if math.Abs(ss.ProbeRate-1e6) > 0.1e6 {
		t.Errorf("ro = %.2f Mb/s, want ~1", ss.ProbeRate/1e6)
	}
}

func TestMeasureErrors(t *testing.T) {
	if _, err := MeasureTrain(quietLink(1), 0, 1e6, 1); err == nil {
		t.Error("zero-length train accepted")
	}
	if _, err := MeasureTrain(quietLink(1), 2, 1e6, 0); err == nil {
		t.Error("zero reps accepted")
	}
	if _, err := MeasureSteadyState(quietLink(1), 0, sim.Second); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := MeasureSteadyState(quietLink(1), 1e6, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestReplicationsVary(t *testing.T) {
	l := quietLink(14)
	l.Contenders = []Flow{{RateBps: 4e6, Size: 1500}}
	ts, err := MeasureTrain(l, 10, 8e6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Independent replications should not produce identical dispersions.
	first := ts.Samples[0].GO
	same := true
	for _, s := range ts.Samples[1:] {
		if s.GO != first {
			same = false
		}
	}
	if same {
		t.Error("all replications produced identical gO (seeding broken)")
	}
}

// Section 6.3: burstier FIFO cross-traffic raises the variability of
// dispersion measurements at the same average load.
func TestBurstyFIFOCrossRaisesDispersionVariability(t *testing.T) {
	goStd := func(flow Flow, seed int64) float64 {
		l := quietLink(seed)
		l.FIFOCross = []Flow{flow}
		ts, err := MeasureTrain(l, 20, 2e6, 120)
		if err != nil {
			t.Fatal(err)
		}
		var gos []float64
		for _, s := range ts.Samples {
			if s.GO > 0 {
				gos = append(gos, s.GO.Seconds())
			}
		}
		mean := 0.0
		for _, g := range gos {
			mean += g
		}
		mean /= float64(len(gos))
		va := 0.0
		for _, g := range gos {
			va += (g - mean) * (g - mean)
		}
		return va / float64(len(gos))
	}
	smooth := goStd(Flow{RateBps: 2e6, Size: 1500}, 40)
	bursty := goStd(Flow{
		RateBps: 2e6, Size: 1500,
		OnMean: 5 * sim.Millisecond, OffMean: 45 * sim.Millisecond,
	}, 40)
	if bursty <= smooth {
		t.Errorf("bursty cross gO variance %.3g not above Poisson %.3g", bursty, smooth)
	}
}

func TestOnOffFlowPreservesMeanRate(t *testing.T) {
	// The on/off flow must offer the same average rate; the steady-state
	// probe throughput below B should be unaffected.
	l := quietLink(41)
	l.FIFOCross = []Flow{{
		RateBps: 1.5e6, Size: 1500,
		OnMean: 10 * sim.Millisecond, OffMean: 30 * sim.Millisecond,
	}}
	ss, err := MeasureSteadyState(l, 1e6, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss.FIFORate-1.5e6) > 0.35e6 {
		t.Errorf("on/off FIFO cross carried %.2f Mb/s, want ~1.5", ss.FIFORate/1e6)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	l := quietLink(15)
	l.Contenders = []Flow{{RateBps: 3e6, Size: 1000}}
	a, err := MeasureTrain(l, 12, 6e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureTrain(l, 12, 6e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].GO != b.Samples[i].GO {
			t.Fatal("same link+seed produced different measurements")
		}
	}
}

// TestTruncatedTrainDetection forces the simulation horizon to cut a
// train short: FIFO cross-traffic far above the link capacity floods
// the probing station's own queue, so the probes sit behind an
// ever-growing backlog and are neither delivered nor dropped when the
// run ends. Such replications must be flagged Truncated — they are
// horizon artifacts, not channel drops — and excluded from MeanGO.
func TestTruncatedTrainDetection(t *testing.T) {
	l := Link{
		WarmUp:    10 * sim.Millisecond,
		FIFOCross: []Flow{{RateBps: 50e6, Size: 1500}},
		Seed:      31,
	}
	ts, err := MeasureTrain(l, 5, 8e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for _, s := range ts.Samples {
		if s.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no replication flagged Truncated with the probe queue flooded by over-capacity FIFO cross-traffic")
	}
	// Truncated replications carry no usable dispersion: MeanGO must
	// not read their GO values.
	forged := &TrainStats{L: 1500, Samples: []TrainSample{
		{GO: 2 * sim.Millisecond},
		{GO: 100 * sim.Millisecond, Truncated: true},
	}}
	if got, want := forged.MeanGO(), (2 * sim.Millisecond).Seconds(); got != want {
		t.Fatalf("MeanGO = %g, want %g (truncated sample must be excluded)", got, want)
	}
}

// TestTrainNotTruncatedNormally: ordinary scenarios resolve every probe
// well inside the horizon and must not be flagged.
func TestTrainNotTruncatedNormally(t *testing.T) {
	l := quietLink(5)
	l.Contenders = []Flow{{RateBps: 4e6, Size: 1500}}
	ts, err := MeasureTrain(l, 30, 5e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range ts.Samples {
		if s.Truncated {
			t.Errorf("replication %d flagged Truncated in a benign scenario", r)
		}
	}
}

// TestRateEstimateAllTruncated pins the silent-zero fix: when the FIFO
// queue is backlogged so far past the drain horizon that no replication
// ever resolves its train, the estimator must say so with an error
// wrapping ErrNoEstimate and a NaN value — not report 0 bit/s as if it
// were a measurement.
func TestRateEstimateAllTruncated(t *testing.T) {
	l := quietLink(30)
	l.WarmUp = 500 * sim.Millisecond
	// 60 Mb/s of FIFO cross-traffic onto an 11 Mb/s PHY: the warm-up
	// alone queues seconds of backlog ahead of the probes, far beyond
	// the 2-packet train's drain envelope.
	l.FIFOCross = []Flow{{RateBps: 60e6, Size: 1500}}
	ts, err := MeasureTrain(l, 2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ts.Samples {
		if !s.Truncated {
			t.Fatalf("replication %d not truncated; fixture no longer saturates the horizon", i)
		}
	}
	est, err := ts.RateEstimate()
	if !errors.Is(err, ErrNoEstimate) {
		t.Fatalf("RateEstimate error = %v, want ErrNoEstimate", err)
	}
	if !math.IsNaN(est) {
		t.Errorf("RateEstimate value = %g, want NaN", est)
	}
	if _, err := MeasurePair(l, 4); !errors.Is(err, ErrNoEstimate) {
		t.Errorf("MeasurePair error = %v, want ErrNoEstimate", err)
	}
}

// TestMeterReuseMatchesFreshEngines is the probe-level half of the
// engine-reuse equivalence: a batch of replications measured through
// one TrainMeter (one engine, Reset between trains — the batched
// MeasureTrain path) must be byte-identical to the same replications
// measured one fresh engine at a time through a nil meter.
func TestMeterReuseMatchesFreshEngines(t *testing.T) {
	l := Link{
		Seed:       44,
		Contenders: []Flow{{RateBps: 3e6, Size: 1500}},
	}
	const n, reps = 40, 8
	const rate = 5e6
	plan, err := PlanTrain(l, n, rate)
	if err != nil {
		t.Fatal(err)
	}
	m := &TrainMeter{}
	for rep := 0; rep < reps; rep++ {
		reused, err := plan.MeasureOne(m, rep)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := plan.MeasureOne(nil, rep)
		if err != nil {
			t.Fatal(err)
		}
		if reused.GO != fresh.GO || reused.Truncated != fresh.Truncated {
			t.Fatalf("rep %d: summary differs: reused %+v vs fresh %+v", rep, reused, fresh)
		}
		for i := range fresh.Departures {
			if reused.Departures[i] != fresh.Departures[i] {
				t.Fatalf("rep %d departure %d: %v vs %v", rep, i, reused.Departures[i], fresh.Departures[i])
			}
			if reused.AccessDelays[i] != fresh.AccessDelays[i] {
				t.Fatalf("rep %d delay %d: %v vs %v", rep, i, reused.AccessDelays[i], fresh.AccessDelays[i])
			}
		}
		if len(reused.QueueAtDepart) != len(fresh.QueueAtDepart) {
			t.Fatalf("rep %d: queue samples %d vs %d", rep, len(reused.QueueAtDepart), len(fresh.QueueAtDepart))
		}
		for i := range fresh.QueueAtDepart {
			if reused.QueueAtDepart[i] != fresh.QueueAtDepart[i] {
				t.Fatalf("rep %d queue sample %d: %v vs %v", rep, i, reused.QueueAtDepart[i], fresh.QueueAtDepart[i])
			}
		}
	}
}

// TestMeterRecoversFromBadConfig: a failed measurement through a meter
// must not poison later measurements on the same meter.
func TestMeterRecoversFromBadConfig(t *testing.T) {
	good, err := PlanTrain(quietLink(9), 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	m := &TrainMeter{}
	if _, err := good.MeasureOne(m, 0); err != nil {
		t.Fatal(err)
	}
	// A statically invalid link no longer reaches the meter at all —
	// PlanTrain's Validate rejects it up front.
	bad := quietLink(9)
	bad.Loss = phy.ErrorModel{FER: 2} // invalid: probability > 1
	if _, err := PlanTrain(bad, 10, 1e6); err == nil {
		t.Fatal("invalid loss model accepted by PlanTrain")
	}
	// A config that passes static validation but fails inside the
	// engine (TXOP-enabled AC over a hidden topology is rejected at run
	// time) still exercises the failure path through the meter.
	engineBad := quietLink(9)
	engineBad.ProbeAC = phy.ACVoice
	engineBad.Contenders = []Flow{{RateBps: 1e5, Size: 500}}
	engineBad.Topology = mac.NewTopology(2)
	badPlan, err := PlanTrain(engineBad, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badPlan.MeasureOne(m, 0); err == nil {
		t.Fatal("TXOP over hidden topology accepted")
	}
	after, err := good.MeasureOne(m, 3)
	if err != nil {
		t.Fatalf("meter unusable after failed measurement: %v", err)
	}
	fresh, err := good.MeasureOne(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if after.GO != fresh.GO {
		t.Fatalf("post-failure measurement differs: %v vs %v", after.GO, fresh.GO)
	}
}

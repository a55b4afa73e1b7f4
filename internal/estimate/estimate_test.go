package estimate

import (
	"errors"
	"math"
	"testing"

	"csmabw/internal/bianchi"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// testLink is the paper's Fig. 2/3 validation cell: one probing
// station against one Poisson contender.
func testLink(seed int64, crossBps float64) probe.Link {
	l := probe.Link{Seed: seed}
	if crossBps > 0 {
		l.Contenders = []probe.Flow{{RateBps: crossBps, Size: 1500}}
	}
	return l
}

// quickTOPP keeps unit tests fast; the acceptance-grade defaults run
// in the integration suite.
func quickTOPP() TOPPConfig { return TOPPConfig{Points: 8, TrainLen: 40, Reps: 6} }

func TestGroundTruthIdleLinkNearCapacity(t *testing.T) {
	tr, err := GroundTruth(testLink(1, 0), TruthConfig{Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	c := phy.B11().MaxThroughput(1500)
	if math.Abs(tr.AvailableBps-c) > 0.1*c {
		t.Errorf("idle-link truth %.2f Mb/s, want ~%.2f", tr.AvailableBps/1e6, c/1e6)
	}
	if tr.CrossBps != 0 || tr.CarriedBps != tr.AvailableBps {
		t.Errorf("idle link reported cross share: %+v", tr)
	}
}

// TestGroundTruthBianchiCrossCheck pins the harness to the analytical
// yardstick: with the probe saturating against one saturated
// contender, the probe's share must sit near half of Bianchi's
// two-station saturation throughput.
func TestGroundTruthBianchiCrossCheck(t *testing.T) {
	l := testLink(2, 9e6) // contender offered well above its share: saturated
	tr, err := GroundTruth(l, TruthConfig{Duration: 3 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	p := phy.B11()
	sol, err := bianchi.Solve(2, p.CWMin, p.CWMax)
	if err != nil {
		t.Fatal(err)
	}
	fair := sol.Throughput(p, 1500) / 2
	if math.Abs(tr.AvailableBps-fair) > 0.15*fair {
		t.Errorf("saturated fair share %.2f Mb/s, Bianchi %.2f", tr.AvailableBps/1e6, fair/1e6)
	}
}

func TestTOPPTracksGroundTruth(t *testing.T) {
	l := testLink(3, 2e6)
	tr, err := GroundTruth(l, TruthConfig{Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	est, err := TOPP(l, quickTOPP())
	if err != nil {
		t.Fatal(err)
	}
	// The quick config trades accuracy for test speed; the 10% paper
	// acceptance bound runs at the default config in the integration
	// suite (TestEstimatorAccuracy).
	if rel := math.Abs(est.Value-tr.AvailableBps) / tr.AvailableBps; rel > 0.2 {
		t.Errorf("TOPP %.2f Mb/s vs truth %.2f (%.0f%% off)", est.Value/1e6, tr.AvailableBps/1e6, 100*rel)
	}
	if est.Cost.Trains == 0 || est.Cost.Packets == 0 || est.Cost.ProbeSeconds <= 0 {
		t.Errorf("TOPP cost not accounted: %+v", est.Cost)
	}
	if est.Rounds != 8 {
		t.Errorf("TOPP rounds = %d, want one per sweep point", est.Rounds)
	}
}

func TestSLoPSBoundedRoundsAndBracket(t *testing.T) {
	cfg := SLoPSConfig{Reps: 4, TrainLen: 40, ResolutionBps: 500e3}
	l := testLink(4, 2e6)
	est, err := SLoPS(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg.withDefaults(l.WithDefaults())
	maxRounds := int(math.Ceil(math.Log2((full.HiBps - full.LoBps) / full.ResolutionBps)))
	if est.Rounds > maxRounds {
		t.Errorf("SLoPS took %d rounds, bisection bound is %d", est.Rounds, maxRounds)
	}
	if est.CI > full.ResolutionBps/2 {
		t.Errorf("final bracket half-width %.0f above resolution/2 %.0f", est.CI, full.ResolutionBps/2)
	}
	if est.Value <= 0 || est.Value >= full.HiBps {
		t.Errorf("SLoPS value %.2f Mb/s outside the search bracket", est.Value/1e6)
	}
}

// TestAdaptiveMeetsTarget is the controller's contract: a successful
// return means the final CI95 half-width is under the target.
func TestAdaptiveMeetsTarget(t *testing.T) {
	for _, rel := range []float64{0.10, 0.05} {
		est, err := Adaptive(testLink(5, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: rel})
		if err != nil {
			t.Fatalf("target %g: %v", rel, err)
		}
		if est.CI > rel*est.Value {
			t.Errorf("target %g: CI %.0f above %.0f", rel, est.CI, rel*est.Value)
		}
	}
}

// TestAdaptiveCostMonotone: tightening the confidence target can only
// cost more probing, never less — the batch checkpoints are fixed, so
// a looser target stops at the first checkpoint the tighter one would
// also have accepted.
func TestAdaptiveCostMonotone(t *testing.T) {
	targets := []float64{0.20, 0.10, 0.05, 0.025}
	prev := -1
	for _, rel := range targets {
		est, err := Adaptive(testLink(6, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: rel, MaxReps: 256})
		if err != nil {
			t.Fatalf("target %g: %v", rel, err)
		}
		if est.Cost.Trains < prev {
			t.Errorf("target %g cost %d trains, looser target cost %d", rel, est.Cost.Trains, prev)
		}
		prev = est.Cost.Trains
	}
}

func TestAdaptiveBudgetExhausted(t *testing.T) {
	// An absurdly tight target cannot be met within a tiny budget; the
	// controller must say so while still returning its best estimate.
	est, err := Adaptive(testLink(7, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: 1e-6, MaxReps: 8})
	if !errors.Is(err, ErrTargetNotReached) {
		t.Fatalf("err = %v, want ErrTargetNotReached", err)
	}
	if est.Value <= 0 || est.CI <= 0 {
		t.Errorf("no best-effort estimate returned: %+v", est)
	}
}

// TestAdaptiveReusesEngine pins the engine reuse of the adaptive
// controller: each batch's trains run on per-worker meters whose
// simulation engine is Reset between replications, so a train costs
// about 31 allocations (its sample, sources and closures) instead of
// the ~67 a freshly built engine per train costs. The campaign is
// fixed — an unreachable target drives it to exactly MaxReps trains
// in batches of 8 on one worker.
func TestAdaptiveReusesEngine(t *testing.T) {
	const trains = 200
	l := testLink(12, 2e6)
	l.Workers = 1
	cfg := AdaptiveConfig{RateBps: 12e6, TrainLen: 50, TargetRel: 1e-6, MaxReps: trains}
	campaign := func() {
		est, err := Adaptive(l, cfg)
		if !errors.Is(err, ErrTargetNotReached) || est.Cost.Trains != trains {
			t.Fatalf("campaign ran %d trains (err %v), want %d and ErrTargetNotReached", est.Cost.Trains, err, trains)
		}
	}
	perTrain := testing.AllocsPerRun(1, campaign) / trains
	if perTrain > 40 {
		t.Fatalf("%.1f allocations per adaptive train, want <= 40", perTrain)
	}
}

// TestEstimatorsWorkerDeterminism: every estimator derives randomness
// purely from (seed, round, replication), so the result must be
// byte-identical at any worker count.
func TestEstimatorsWorkerDeterminism(t *testing.T) {
	run := func(workers int) [3]Estimate {
		l := testLink(8, 2e6)
		l.Workers = workers
		topp, err := TOPP(l, quickTOPP())
		if err != nil {
			t.Fatal(err)
		}
		sl, err := SLoPS(l, SLoPSConfig{Reps: 4, TrainLen: 40, ResolutionBps: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		ad, err := Adaptive(l, AdaptiveConfig{RateBps: 12e6, TargetRel: 0.1, MaxReps: 64})
		if err != nil {
			t.Fatal(err)
		}
		return [3]Estimate{topp, sl, ad}
	}
	if run(1) != run(8) {
		t.Error("estimates differ between workers=1 and workers=8")
	}
}

func TestConfigValidation(t *testing.T) {
	l := testLink(9, 0)
	check := func(name string, fn func() (Estimate, error)) {
		if _, err := fn(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	check("TOPP inverted bracket", func() (Estimate, error) {
		return TOPP(l, TOPPConfig{MinRateBps: 5e6, MaxRateBps: 1e6})
	})
	check("TOPP two points", func() (Estimate, error) {
		return TOPP(l, TOPPConfig{Points: 2})
	})
	check("SLoPS inverted bracket", func() (Estimate, error) {
		return SLoPS(l, SLoPSConfig{LoBps: 5e6, HiBps: 1e6})
	})
	check("SLoPS tiny train", func() (Estimate, error) {
		return SLoPS(l, SLoPSConfig{TrainLen: 4})
	})
	check("SLoPS bad threshold", func() (Estimate, error) {
		return SLoPS(l, SLoPSConfig{TrendT: -1})
	})
	check("adaptive negative rate", func() (Estimate, error) {
		return Adaptive(l, AdaptiveConfig{RateBps: -1})
	})
	check("adaptive bad batch", func() (Estimate, error) {
		return Adaptive(l, AdaptiveConfig{BatchReps: 16, MaxReps: 8})
	})
	check("truth negative duration", func() (Estimate, error) {
		_, err := GroundTruth(l, TruthConfig{Duration: -sim.Second})
		return Estimate{}, err
	})
	check("SLoPS resolution wider than bracket", func() (Estimate, error) {
		// Would otherwise end the bisection before any train is sent.
		return SLoPS(l, SLoPSConfig{LoBps: 1e6, HiBps: 2e6, ResolutionBps: 5e6})
	})
}

func TestOWDTrendDelta(t *testing.T) {
	gI := sim.Millisecond
	flat := make([]sim.Time, 20)
	rising := make([]sim.Time, 20)
	for i := range flat {
		flat[i] = sim.Time(i)*gI + 3*sim.Millisecond
		rising[i] = sim.Time(i)*gI + sim.Time(i+1)*2*sim.Millisecond
	}
	if d, ok := owdTrendDelta(flat, gI); !ok || d != 0 {
		t.Errorf("flat delays: delta %g ok %v, want 0 true", d, ok)
	}
	if d, ok := owdTrendDelta(rising, gI); !ok || d <= 0 {
		t.Errorf("rising delays: delta %g ok %v, want positive", d, ok)
	}
	// Too many drops: no verdict.
	dropped := append([]sim.Time(nil), flat...)
	for i := 0; i < 18; i++ {
		dropped[i] = -1
	}
	if _, ok := owdTrendDelta(dropped, gI); ok {
		t.Error("verdict from 2 delivered packets")
	}
}

func TestTrendIncreasing(t *testing.T) {
	if trendIncreasing([]float64{0.001, -0.001, 0.0005, -0.0005}, 2) {
		t.Error("noise around zero classified as increasing")
	}
	if !trendIncreasing([]float64{0.010, 0.011, 0.009, 0.012}, 2) {
		t.Error("consistent positive deltas not classified as increasing")
	}
	if !trendIncreasing([]float64{0.01}, 2) {
		t.Error("single positive delta not classified by sign")
	}
}

// TestConfigRejectsNonFinite extends the validation to NaN/Inf, which
// fail every range comparison and would otherwise slip through (a NaN
// adaptive target makes the stop condition never true, burning the
// whole replication budget).
func TestConfigRejectsNonFinite(t *testing.T) {
	l := testLink(10, 0)
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func() (Estimate, error){
		"TOPP NaN max":      func() (Estimate, error) { return TOPP(l, TOPPConfig{MaxRateBps: nan}) },
		"TOPP NaN tol":      func() (Estimate, error) { return TOPP(l, TOPPConfig{Tol: nan}) },
		"SLoPS NaN hi":      func() (Estimate, error) { return SLoPS(l, SLoPSConfig{HiBps: nan}) },
		"SLoPS NaN trendT":  func() (Estimate, error) { return SLoPS(l, SLoPSConfig{TrendT: nan}) },
		"adaptive NaN rate": func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{RateBps: nan}) },
		"adaptive NaN rel":  func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{TargetRel: nan}) },
		"adaptive Inf abs":  func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{TargetBps: inf}) },
		"adaptive rel >= 1": func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{TargetRel: 1.5}) },
		"truth NaN saturate": func() (Estimate, error) {
			_, err := GroundTruth(l, TruthConfig{SaturateBps: nan})
			return Estimate{}, err
		},
		"truth Inf saturate": func() (Estimate, error) {
			_, err := GroundTruth(l, TruthConfig{SaturateBps: inf})
			return Estimate{}, err
		},
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

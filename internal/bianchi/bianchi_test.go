package bianchi

import (
	"math"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(0, 31, 1023); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Solve(2, 0, 1023); err == nil {
		t.Error("CWMin=0 accepted")
	}
	if _, err := Solve(2, 31, 15); err == nil {
		t.Error("CWMax < CWMin accepted")
	}
}

func TestSolveSingleStation(t *testing.T) {
	s, err := Solve(1, 31, 1023)
	if err != nil {
		t.Fatal(err)
	}
	// Alone: no collisions; tau = 2/(W+1).
	if s.P != 0 && s.P > 1e-6 {
		t.Errorf("p = %g for n=1, want 0", s.P)
	}
	want := 2.0 / 33.0
	if math.Abs(s.Tau-want) > 1e-6 {
		t.Errorf("tau = %g, want %g", s.Tau, want)
	}
}

func TestSolveKnownValues(t *testing.T) {
	// Bianchi's paper (W=32, m=5, i.e. CWMin=31, CWMax=1023) reports
	// p ~ 0.06 at n=2 rising steadily with n; tau decreasing.
	prevP, prevTau := 0.0, 1.0
	for _, n := range []int{2, 5, 10, 20, 50} {
		s, err := Solve(n, 31, 1023)
		if err != nil {
			t.Fatal(err)
		}
		if s.P <= prevP {
			t.Errorf("n=%d: p %g not increasing (prev %g)", n, s.P, prevP)
		}
		if s.Tau >= prevTau {
			t.Errorf("n=%d: tau %g not decreasing (prev %g)", n, s.Tau, prevTau)
		}
		prevP, prevTau = s.P, s.Tau
	}
	s, _ := Solve(10, 31, 1023)
	if s.P < 0.15 || s.P > 0.35 {
		t.Errorf("n=10: p = %g, expected ~0.2-0.3 (Bianchi Fig. 6 region)", s.P)
	}
}

func TestThroughputShape(t *testing.T) {
	p := phy.B11()
	// Saturation throughput peaks at small n and declines slowly.
	var prev float64
	for i, n := range []int{2, 10, 50} {
		s, err := Solve(n, p.CWMin, p.CWMax)
		if err != nil {
			t.Fatal(err)
		}
		thr := s.Throughput(p, 1500)
		if thr <= 0 || thr > p.DataRate {
			t.Fatalf("n=%d: throughput %g implausible", n, thr)
		}
		if i > 0 && thr >= prev {
			t.Errorf("n=%d: aggregate %g not declining with contention (prev %g)", n, thr, prev)
		}
		prev = thr
	}
}

// The validation the package exists for: the discrete-event MAC engine,
// run to saturation, matches Bianchi's model on both the collision
// probability and the aggregate throughput.
func TestMACEngineMatchesBianchi(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation validation skipped in -short mode")
	}
	p := phy.B11()
	for _, n := range []int{2, 3, 5} {
		sol, err := Solve(n, p.CWMin, p.CWMax)
		if err != nil {
			t.Fatal(err)
		}
		// Saturate every station.
		cfg := mac.Config{Phy: p, Seed: int64(100 + n), Horizon: 8 * sim.Second}
		for i := 0; i < n; i++ {
			cfg.Stations = append(cfg.Stations, mac.StationConfig{
				Source: traffic.NewCBR(20e6, 1500, 0, 8*sim.Second),
			})
		}
		res, err := mac.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var attempts, collisions int
		var agg float64
		for i := 0; i < n; i++ {
			attempts += res.Stats[i].Attempts
			collisions += res.Stats[i].Collisions
			agg += res.Throughput(i, sim.Second, 8*sim.Second)
		}
		pMeas := float64(collisions) / float64(attempts)
		if rel := math.Abs(pMeas-sol.P) / sol.P; rel > 0.35 {
			t.Errorf("n=%d: collision probability %0.3f vs Bianchi %0.3f (%.0f%% off)",
				n, pMeas, sol.P, rel*100)
		}
		thr := sol.Throughput(p, 1500)
		if rel := math.Abs(agg-thr) / thr; rel > 0.15 {
			t.Errorf("n=%d: aggregate %.2f Mb/s vs Bianchi %.2f (%.0f%% off)",
				n, agg/1e6, thr/1e6, rel*100)
		}
	}
}

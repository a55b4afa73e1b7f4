package experiments

// This file holds the closed-loop estimator evaluation: where the
// paper's figures measure raw dispersions, these figures run whole
// estimation campaigns (internal/estimate) against measured ground
// truth — the end-to-end scoring of the tools whose distortion the
// paper predicts. Three questions, one figure each: how accurate are
// the estimators as cross-load grows (abest-accuracy), what does
// accuracy cost in probing effort (abest-frontier), and how do the
// estimators hold up across the scenario matrix the simulator has
// accumulated — frame loss, hidden terminals, EDCA priorities, mixed
// rates (abest-robust).

import (
	"errors"
	"fmt"

	"csmabw/internal/estimate"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// AbestParams configures the estimator-accuracy experiments.
type AbestParams struct {
	// CrossRates are the contending cross-traffic levels swept by the
	// accuracy figure, bit/s.
	CrossRates []float64
	// Targets are the adaptive controller's relative CI95 targets swept
	// by the frontier figure.
	Targets []float64
	// CrossBps is the fixed cross-load of the frontier and robustness
	// figures.
	CrossBps   float64
	PacketSize int
	Seed       int64
	// BudgetPackets are the hard probe-packet caps swept by the budget
	// figure, from starved to comfortable.
	BudgetPackets []int
}

// DefaultAbest places the sweeps around the paper's Fig. 2/3 operating
// points: cross-loads from idle to past the saturation knee, and CI
// targets from sloppy to tight.
func DefaultAbest() AbestParams {
	return AbestParams{
		CrossRates:    []float64{0, 1e6, 2e6, 3e6, 4e6, 5e6},
		Targets:       []float64{0.20, 0.10, 0.05, 0.025},
		CrossBps:      2.5e6,
		PacketSize:    1500,
		Seed:          51,
		BudgetPackets: []int{300, 600, 1200, 2400},
	}
}

// estimatorSet is the per-unit estimator dispatch shared by the three
// figures: unit k of a scenario runs the k-th estimator. Index 0 is
// the ground-truth measurement.
const (
	abTruth = iota
	abTOPP
	abSLoPS
	abAdaptive
	abEstimators // count
)

// abName is the series name per estimator index.
func abName(k int) string {
	switch k {
	case abTruth:
		return "ground truth"
	case abTOPP:
		return "TOPP"
	case abSLoPS:
		return "SLoPS"
	case abAdaptive:
		return "adaptive train"
	}
	panic(fmt.Sprintf("experiments: estimator index %d", k))
}

// AbestEffort is the estimators' effort knobs as derived from an
// experiment Scale; cmd/abest shares it so the CLI's -scale presets
// mean the same thing they mean for the registry figures.
type AbestEffort struct {
	// TOPP configures the rate-sweep estimator.
	TOPP estimate.TOPPConfig
	// SLoPS configures the self-loading bisection.
	SLoPS estimate.SLoPSConfig
	// Adaptive configures the sequential train controller.
	Adaptive estimate.AdaptiveConfig
	// Truth configures the ground-truth measurement.
	Truth estimate.TruthConfig
}

// ScaledAbestEffort maps the experiment Scale onto the estimators'
// effort knobs, so tiny test runs stay fast while default and paper
// scales buy statistical weight.
func ScaledAbestEffort(sc Scale) AbestEffort {
	reps := func(div, floor int) int {
		r := sc.Reps / div
		if r < floor {
			r = floor
		}
		return r
	}
	return AbestEffort{
		TOPP:     estimate.TOPPConfig{Points: 10, TrainLen: 50, Reps: reps(20, 3)},
		SLoPS:    estimate.SLoPSConfig{TrainLen: 60, Reps: reps(25, 3)},
		Adaptive: estimate.AdaptiveConfig{RateBps: 12e6, TrainLen: 100, BatchReps: reps(25, 4), MaxReps: 4 * reps(1, 64)},
		Truth:    estimate.TruthConfig{Duration: 4 * sim.FromSeconds(sc.SteadySeconds)},
	}
}

// abRun dispatches one estimator on the link. The ok result is false
// when the estimator could not produce a value (estimate.
// ErrEstimateFailed) — the figure then skips the point instead of
// plotting a bogus number.
func abRun(k int, l probe.Link, cfg AbestEffort) (v estimate.Estimate, ok bool, err error) {
	var e estimate.Estimate
	switch k {
	case abTruth:
		tr, err := estimate.GroundTruth(l, cfg.Truth)
		return estimate.Estimate{Value: tr.AvailableBps}, err == nil, err
	case abTOPP:
		e, err = estimate.TOPP(l, cfg.TOPP)
	case abSLoPS:
		e, err = estimate.SLoPS(l, cfg.SLoPS)
	case abAdaptive:
		e, err = estimate.Adaptive(l, cfg.Adaptive)
	default:
		return estimate.Estimate{}, false, fmt.Errorf("experiments: estimator index %d", k)
	}
	switch {
	case errors.Is(err, estimate.ErrEstimateFailed):
		// No usable value, but the partial Estimate still carries the
		// Cost and Rounds the failed campaign spent — budget accounting
		// survives even when the figure skips the point.
		return e, false, nil
	case errors.Is(err, estimate.ErrTargetNotReached):
		// The budget ran out: the best-effort value still plots, its
		// (wide) CI tells the story.
		return e, true, nil
	case err != nil:
		return estimate.Estimate{}, false, err
	}
	return e, true, nil
}

// AbestAccuracy sweeps the contending cross-load and scores every
// estimator against the measured ground truth at that load — the
// estimator-layer rendering of the paper's Fig. 16 comparison, with
// whole closed-loop tools in place of single dispersion measurements.
// Unit u runs estimator u%abEstimators at cross level u/abEstimators.
func AbestAccuracy(p AbestParams, sc Scale) (*Figure, error) {
	cfg := ScaledAbestEffort(sc)
	type pt struct {
		ok  bool
		val float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: len(p.CrossRates) * abEstimators,
		Build: func() error {
			if len(p.CrossRates) == 0 {
				return fmt.Errorf("experiments: abest-accuracy needs cross rates")
			}
			return nil
		},
		RunOne: func(_ *probe.TrainMeter, u int, stream sim.Stream) (pt, error) {
			point, k := u/abEstimators, u%abEstimators
			l := probe.Link{ProbeSize: p.PacketSize, Seed: stream.Seed(), Workers: 1}
			if cr := p.CrossRates[point]; cr > 0 {
				l.Contenders = []probe.Flow{{RateBps: cr, Size: p.PacketSize}}
			}
			e, ok, err := abRun(k, l, cfg)
			return pt{ok: ok, val: e.Value}, err
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     "abest-accuracy",
				Title:  "Closed-loop estimator accuracy vs contending cross-load",
				XLabel: "cross-traffic rate (Mb/s)",
				YLabel: "estimated available bandwidth (Mb/s)",
			}
			for k := 0; k < abEstimators; k++ {
				s := Series{Name: abName(k)}
				for point := range p.CrossRates {
					pt := pts[point*abEstimators+k]
					if !pt.ok {
						continue
					}
					s.X = append(s.X, p.CrossRates[point]/1e6)
					s.Y = append(s.Y, pt.val/1e6)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

// AbestFrontier sweeps the adaptive controller's confidence target and
// plots the probing cost it pays against the accuracy it delivers —
// the cost/accuracy frontier a deployed tool navigates when choosing
// how long to keep probing. Unit 0 measures ground truth; unit i+1
// runs the controller at target i.
func AbestFrontier(p AbestParams, sc Scale) (*Figure, error) {
	cfg := ScaledAbestEffort(sc)
	type pt struct {
		ok           bool
		val, packets float64
	}
	link := func(stream sim.Stream) probe.Link {
		l := probe.Link{ProbeSize: p.PacketSize, Seed: stream.Seed(), Workers: 1}
		if p.CrossBps > 0 {
			l.Contenders = []probe.Flow{{RateBps: p.CrossBps, Size: p.PacketSize}}
		}
		return l
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed + 1,
		Units: 1 + len(p.Targets),
		Build: func() error {
			for _, t := range p.Targets {
				if t <= 0 || t >= 1 {
					return fmt.Errorf("experiments: CI target %g outside (0,1)", t)
				}
			}
			return nil
		},
		RunOne: func(_ *probe.TrainMeter, u int, stream sim.Stream) (pt, error) {
			if u == 0 {
				tr, err := estimate.GroundTruth(link(stream), cfg.Truth)
				return pt{ok: true, val: tr.AvailableBps}, err
			}
			ac := cfg.Adaptive
			ac.TargetRel = p.Targets[u-1]
			e, ok, err := abRun(abAdaptive, link(stream), AbestEffort{Adaptive: ac, Truth: cfg.Truth})
			return pt{ok: ok, val: e.Value, packets: float64(e.Cost.Packets)}, err
		},
		Reduce: func(pts []pt) (*Figure, error) {
			truth := pts[0].val
			if truth <= 0 {
				return nil, fmt.Errorf("experiments: abest-frontier ground truth %g", truth)
			}
			errS := Series{Name: "relative error (%)"}
			costS := Series{Name: "probe packets"}
			for i, t := range p.Targets {
				pt := pts[i+1]
				if !pt.ok {
					continue
				}
				x := 100 * t
				rel := 100 * (pt.val - truth) / truth
				if rel < 0 {
					rel = -rel
				}
				errS.X = append(errS.X, x)
				errS.Y = append(errS.Y, rel)
				costS.X = append(costS.X, x)
				costS.Y = append(costS.Y, pt.packets)
			}
			return &Figure{
				ID:     "abest-frontier",
				Title:  "Adaptive-train probing cost vs accuracy across CI targets",
				XLabel: "CI95 target (% of estimate)",
				YLabel: "relative error (%) / probe packets",
				Series: []Series{errS, costS},
			}, nil
		},
	}, sc)
}

// AbestBudget sweeps a hard probe-packet cap across every estimator
// and plots, against the budget, both the measured relative error and
// the effective confidence half-width (epsilon_eff) each truncated
// campaign reports — the accuracy-vs-budget frontier a deployed tool
// navigates when its probing allowance, not its confidence target,
// decides when to stop. Honest reporting is the point: the epsilon_eff
// curve must widen as the budget starves, never pretend the target was
// met. Unit 0 measures ground truth; unit 1 + b*3 + (k-1) runs
// estimator k under cap b.
func AbestBudget(p AbestParams, sc Scale) (*Figure, error) {
	cfg := ScaledAbestEffort(sc)
	const tools = abEstimators - 1 // every estimator except ground truth
	type pt struct {
		ok        bool
		val, ci   float64
		packets   float64
		truncated estimate.Truncation
	}
	link := func(stream sim.Stream) probe.Link {
		l := probe.Link{ProbeSize: p.PacketSize, Seed: stream.Seed(), Workers: 1}
		if p.CrossBps > 0 {
			l.Contenders = []probe.Flow{{RateBps: p.CrossBps, Size: p.PacketSize}}
		}
		return l
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed + 3,
		Units: 1 + len(p.BudgetPackets)*tools,
		Build: func() error {
			if len(p.BudgetPackets) == 0 {
				return fmt.Errorf("experiments: abest-budget needs packet caps")
			}
			for _, b := range p.BudgetPackets {
				if b <= 0 {
					return fmt.Errorf("experiments: abest-budget cap %d must be positive", b)
				}
			}
			return nil
		},
		RunOne: func(_ *probe.TrainMeter, u int, stream sim.Stream) (pt, error) {
			if u == 0 {
				tr, err := estimate.GroundTruth(link(stream), cfg.Truth)
				return pt{ok: true, val: tr.AvailableBps}, err
			}
			b, k := (u-1)/tools, 1+(u-1)%tools
			budget := estimate.Budget{MaxPackets: p.BudgetPackets[b]}
			c := cfg
			c.TOPP.Budget = budget
			c.SLoPS.Budget = budget
			c.Adaptive.Budget = budget
			e, ok, err := abRun(k, link(stream), c)
			return pt{ok: ok, val: e.Value, ci: e.CI,
				packets: float64(e.Cost.Packets), truncated: e.Truncated}, err
		},
		Reduce: func(pts []pt) (*Figure, error) {
			truth := pts[0].val
			if truth <= 0 {
				return nil, fmt.Errorf("experiments: abest-budget ground truth %g", truth)
			}
			fig := &Figure{
				ID:     "abest-budget",
				Title:  "Estimator accuracy and reported epsilon_eff vs hard packet budget",
				XLabel: "probe-packet budget",
				YLabel: "relative error / epsilon_eff vs ground truth (%)",
			}
			for k := 1; k <= tools; k++ {
				errS := Series{Name: abName(k) + " error (%)"}
				epsS := Series{Name: abName(k) + " eps_eff (%)"}
				for b, cap := range p.BudgetPackets {
					pt := pts[1+b*tools+(k-1)]
					if !pt.ok {
						continue
					}
					rel := 100 * (pt.val - truth) / truth
					if rel < 0 {
						rel = -rel
					}
					errS.X = append(errS.X, float64(cap))
					errS.Y = append(errS.Y, rel)
					epsS.X = append(epsS.X, float64(cap))
					epsS.Y = append(epsS.Y, 100*pt.ci/truth)
				}
				fig.Series = append(fig.Series, errS, epsS)
			}
			return fig, nil
		},
	}, sc)
}

// abScenario is one row of the robustness matrix: a named channel/
// station configuration layered onto the baseline link.
type abScenario struct {
	name  string
	apply func(l probe.Link) probe.Link
}

// abScenarios is the robustness matrix: the baseline perfect channel
// plus one representative of every scenario family the simulator
// models.
func abScenarios() []abScenario {
	return []abScenario{
		{"perfect", func(l probe.Link) probe.Link { return l }},
		{"fer 3%", func(l probe.Link) probe.Link {
			l.Loss = phy.ErrorModel{FER: 0.03}
			return l
		}},
		{"hidden", func(l probe.Link) probe.Link {
			l.Topology = mac.NewTopology(2) // probe and contender mutually hidden
			return l
		}},
		{"edca VO cross", func(l probe.Link) probe.Link {
			l.Contenders[0].AC = phy.ACVoice // prioritized cross-traffic
			return l
		}},
		{"mixed rate", func(l probe.Link) probe.Link {
			l.Contenders[0].DataRateBps = 2e6 // slow sender: the rate anomaly
			return l
		}},
	}
}

// AbestRobust runs every estimator across the scenario matrix at a
// fixed moderate cross-load and reports the relative error against
// each scenario's own ground truth. Unit u runs estimator
// u%abEstimators on scenario u/abEstimators; the x-axis is the
// scenario index in abScenarios order.
func AbestRobust(p AbestParams, sc Scale) (*Figure, error) {
	cfg := ScaledAbestEffort(sc)
	scenarios := abScenarios()
	type pt struct {
		ok  bool
		val float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed + 2,
		Units: len(scenarios) * abEstimators,
		Build: func() error {
			if p.CrossBps <= 0 {
				return fmt.Errorf("experiments: abest-robust needs positive cross-load, got %g", p.CrossBps)
			}
			return nil
		},
		RunOne: func(_ *probe.TrainMeter, u int, stream sim.Stream) (pt, error) {
			scen, k := u/abEstimators, u%abEstimators
			l := probe.Link{
				ProbeSize:  p.PacketSize,
				Contenders: []probe.Flow{{RateBps: p.CrossBps, Size: p.PacketSize}},
				Seed:       stream.Seed(),
				Workers:    1,
			}
			l = scenarios[scen].apply(l)
			e, ok, err := abRun(k, l, cfg)
			return pt{ok: ok, val: e.Value}, err
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     "abest-robust",
				Title:  "Estimator relative error across the scenario matrix (0=perfect 1=fer 2=hidden 3=edca 4=mixed-rate)",
				XLabel: "scenario",
				YLabel: "relative error vs scenario ground truth (%)",
			}
			for k := 1; k < abEstimators; k++ {
				s := Series{Name: abName(k)}
				for scen := range scenarios {
					truth := pts[scen*abEstimators+abTruth]
					pt := pts[scen*abEstimators+k]
					if !truth.ok || truth.val <= 0 || !pt.ok {
						continue
					}
					rel := 100 * (pt.val - truth.val) / truth.val
					if rel < 0 {
						rel = -rel
					}
					s.X = append(s.X, float64(scen))
					s.Y = append(s.Y, rel)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

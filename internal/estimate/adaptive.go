package estimate

import (
	"fmt"
	"math"

	"csmabw/internal/probe"
	"csmabw/internal/runner"
	"csmabw/internal/stats"
)

// AdaptiveConfig tunes the sequential replication controller.
type AdaptiveConfig struct {
	// RateBps is the probing rate of each train; 0 sends back-to-back
	// trains (the dispersion-maximizing choice, like packet pairs).
	RateBps float64
	// TrainLen is the packets per train (default 50).
	TrainLen int
	// TargetRel is the stopping target: the 95% confidence half-width
	// of the estimate must fall below TargetRel times the estimate
	// (default 0.05). TargetBps, when positive, is used instead as an
	// absolute half-width target in bit/s.
	TargetRel float64
	TargetBps float64
	// BatchReps is how many replications each round adds (default 8).
	// The batch schedule is fixed — rounds always grow the sample by
	// the same amount — so the controller's cost is monotone in the
	// target: a looser target can only stop at an earlier checkpoint.
	BatchReps int
	// MaxReps bounds the total replication budget (default 512).
	MaxReps int
	// Budget caps the campaign's probing effort; the zero value is
	// uncapped. Batches shrink to the remaining allowance (replication
	// k is a pure function of (Seed, k), so a shrunk batch is an exact
	// prefix of the unbudgeted sample sequence), and a campaign a cap
	// stops before its confidence target reports the effective CI it
	// actually achieved plus the cap in Estimate.Truncated. With a
	// Budget set the confidence half-width — both the stopping rule and
	// the reported CI — carries the loss-aware sigma inflation, so
	// lossy links lengthen the campaign instead of stopping early on an
	// optimistic interval.
	Budget Budget
}

// withDefaults fills the zero-value knobs.
func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.TrainLen == 0 {
		c.TrainLen = 50
	}
	if c.TargetRel == 0 {
		c.TargetRel = 0.05
	}
	if c.BatchReps == 0 {
		c.BatchReps = 8
	}
	if c.MaxReps == 0 {
		c.MaxReps = 512
	}
	return c
}

// Adaptive runs the sequential train controller on the link: batches
// of train replications accumulate until the dispersion-based rate
// estimate's 95% confidence half-width falls under the target — the
// classical n = ceil((z·sigma/eps)^2) sample-size rule applied
// sequentially, so quiet links stop after a couple of batches while
// bursty ones keep probing. The estimate is L/E[gO] over all usable
// replications, with the half-width propagated from the gap
// statistics to first order.
//
// The train is planned once per campaign, and each batch runs on
// per-worker meters that reuse one engine across that worker's trains.
// Replication k's randomness is a pure function of (l.Seed, k), so the
// result is byte-identical at any l.Workers setting and the k-th train
// is the same train no matter how batches are scheduled.
func Adaptive(l probe.Link, cfg AdaptiveConfig) (Estimate, error) {
	cfg = cfg.withDefaults()
	if cfg.TrainLen < 2 {
		return Estimate{}, fmt.Errorf("estimate: train length %d", cfg.TrainLen)
	}
	if !(cfg.RateBps >= 0) || math.IsInf(cfg.RateBps, 0) {
		return Estimate{}, fmt.Errorf("estimate: probing rate %g must be finite and >= 0", cfg.RateBps)
	}
	if err := checkFrac("adaptive CI target", cfg.TargetRel, 0, 1); err != nil {
		return Estimate{}, err
	}
	if cfg.TargetBps != 0 {
		if err := checkRate("adaptive absolute CI target", cfg.TargetBps); err != nil {
			return Estimate{}, err
		}
	}
	if cfg.BatchReps < 1 || cfg.MaxReps < cfg.BatchReps {
		return Estimate{}, fmt.Errorf("estimate: invalid adaptive config %+v", cfg)
	}
	if err := cfg.Budget.validate(); err != nil {
		return Estimate{}, err
	}
	plan, err := probe.PlanTrain(l, cfg.TrainLen, cfg.RateBps)
	if err != nil {
		return Estimate{}, err
	}
	gI := plan.GI()
	probeBits := float64(l.WithDefaults().ProbeSize * 8)

	est := Estimate{}
	tracker := budgetTracker{budget: cfg.Budget}
	var samples []probe.TrainSample
	for done := 0; done < cfg.MaxReps; {
		batch := cfg.BatchReps
		if rem := cfg.MaxReps - done; batch > rem {
			batch = rem
		}
		// A shrunk batch is not terminal: the first batch's time forecast
		// is the pessimistic drain envelope, and real observed spans may
		// show the budget affords much more. The campaign only stops when
		// the ledger can no longer buy a single train.
		var capped Truncation
		if batch, capped = tracker.allow(est.Cost, batch, 1, cfg.TrainLen, gI); batch == 0 {
			est.Truncated = capped
			break
		}
		start := done
		fresh, err := runner.MapBatches(batch, l.Workers, 0,
			func() *probe.TrainMeter { return &probe.TrainMeter{} },
			func(m *probe.TrainMeter, i int) (probe.TrainSample, error) {
				return plan.MeasureOne(m, start+i)
			})
		if err != nil {
			return est, err
		}
		done += batch
		est.Rounds++
		for _, s := range fresh {
			est.Cost.add(s, gI)
			tracker.note(s, gI)
			samples = append(samples, s)
		}

		gs := gaps(samples)
		if len(gs) < 2 {
			continue
		}
		sum := stats.Summarize(gs)
		est.Value = probeBits / sum.Mean
		// First-order propagation: a relative error on E[gO] is the same
		// relative error on L/E[gO]. A budgeted campaign widens the
		// half-width by the loss-aware sigma inflation — lossy links must
		// buy more evidence for the same confidence — which governs both
		// the stopping rule and the reported CI.
		est.CI = est.Value * sum.CI95HalfWidth() * inflation(cfg.Budget, &tracker) / sum.Mean
		target := cfg.TargetRel * est.Value
		if cfg.TargetBps > 0 {
			target = cfg.TargetBps
		}
		if est.CI <= target {
			return est, nil
		}
	}
	if est.Value == 0 {
		// The partial Estimate still carries the Cost and Rounds spent,
		// so budget accounting survives the failed campaign.
		return est, fmt.Errorf("%w (adaptive: %d replications, none usable)", ErrEstimateFailed, cfg.MaxReps)
	}
	if est.Truncated != TruncatedNone {
		return est, nil
	}
	return est, ErrTargetNotReached
}

package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/pathsel"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// PathselParams configures the multi-upstream path-selection
// experiments. The fixture is a forwarder with three candidate
// upstream cells: a clean path that degrades hard at a scheduled
// instant (the time-varying channel under test), a lightly-loaded
// backup that becomes the best choice after the event, and a
// saturated decoy that is never worth selecting.
type PathselParams struct {
	// Policies are the selection policies compared, in plotting order.
	Policies []pathsel.Policy
	// Epochs is the number of decision rounds per replication.
	Epochs int
	// EpochSeconds is the decision-grid spacing on the experiment
	// timeline.
	EpochSeconds float64
	// TrainLen and RateBps shape each per-path probing train.
	TrainLen int
	RateBps  float64
	// Alpha is the EMA smoothing factor shared by the smoothing
	// policies.
	Alpha float64
	// Hysteresis is the failover margin used by the regret figure; the
	// lag figure sweeps HystSweep instead.
	Hysteresis float64
	// HystSweep are the failover margins the lag figure sweeps.
	HystSweep []float64
	// Explore is the UCB exploration coefficient.
	Explore float64
	// DegradeEpoch is the decision round at whose start the clean
	// path's scheduled degradation fires.
	DegradeEpoch int
	// DegradeFER is the frame-error rate the degradation imposes on
	// the clean path's probing station.
	DegradeFER float64
	// BackupCrossBps and DecoyCrossBps load the backup and decoy
	// paths' contending stations.
	BackupCrossBps float64
	DecoyCrossBps  float64
	// PacketSize is the probe and cross-traffic payload in bytes.
	PacketSize int
	// Seed roots all randomness.
	Seed int64
	// Upstreams, when non-empty, replaces the built-in three-path
	// fixture — cmd/pathsel fills it from compiled scenario specs, one
	// candidate cell per file, each free to carry its own event
	// schedule. DegradeEpoch then names the decision round at which the
	// caller expects the scheduled degradation to become visible.
	Upstreams []probe.Link
}

// DefaultPathsel is the registry fixture: three policies on a 12-epoch
// half-second grid with the clean path collapsing at epoch 6.
func DefaultPathsel() PathselParams {
	return PathselParams{
		Policies:       []pathsel.Policy{pathsel.PolicyEMA, pathsel.PolicyLast, pathsel.PolicyUCB},
		Epochs:         12,
		EpochSeconds:   0.5,
		TrainLen:       16,
		RateBps:        6e6,
		Alpha:          0.4,
		Hysteresis:     0.1,
		HystSweep:      []float64{0, 0.1, 0.25, 0.5, 1},
		Explore:        5,
		DegradeEpoch:   6,
		DegradeFER:     0.7,
		BackupCrossBps: 5e5,
		DecoyCrossBps:  6e6,
		PacketSize:     1500,
		Seed:           29,
	}
}

// paths builds the three-upstream fixture. Path seeds follow the
// fig10 spacing so replication substreams never collide across paths.
// The warm-up is kept well under the epoch grid so each epoch's
// probing window samples the channel state at its own grid instant:
// with the default 500 ms warm-up the rebased degradation would land
// inside the previous epoch's window and fire one decision early.
func (p PathselParams) paths() []probe.Link {
	if len(p.Upstreams) > 0 {
		return p.Upstreams
	}
	warm := 50 * sim.Millisecond
	fer := p.DegradeFER
	degrading := probe.Link{
		ProbeSize: p.PacketSize,
		WarmUp:    warm,
		Seed:      p.Seed,
		Schedule: []mac.ScheduledEvent{{
			At:     sim.FromSeconds(float64(p.DegradeEpoch) * p.EpochSeconds),
			Target: 0,
			SetFER: &fer,
		}},
	}
	backup := probe.Link{
		ProbeSize:  p.PacketSize,
		WarmUp:     warm,
		Seed:       p.Seed + 977,
		Contenders: []probe.Flow{{RateBps: p.BackupCrossBps, Size: p.PacketSize}},
	}
	decoy := probe.Link{
		ProbeSize:  p.PacketSize,
		WarmUp:     warm,
		Seed:       p.Seed + 2*977,
		Contenders: []probe.Flow{{RateBps: p.DecoyCrossBps, Size: p.PacketSize}},
	}
	return []probe.Link{degrading, backup, decoy}
}

// config assembles the pathsel run for one policy at one margin.
func (p PathselParams) config(pol pathsel.Policy, hysteresis float64) pathsel.Config {
	return pathsel.Config{
		Paths:        p.paths(),
		Epochs:       p.Epochs,
		EpochSeconds: p.EpochSeconds,
		TrainLen:     p.TrainLen,
		RateBps:      p.RateBps,
		Policy:       pol,
		Alpha:        p.Alpha,
		Hysteresis:   hysteresis,
		Explore:      p.Explore,
	}
}

// validate screens the sweep-shaping parameters the pathsel layer
// cannot see.
func (p PathselParams) validate() error {
	if len(p.Policies) == 0 {
		return fmt.Errorf("experiments: pathsel: no policies")
	}
	if p.DegradeEpoch < 1 || p.DegradeEpoch >= p.Epochs {
		return fmt.Errorf("experiments: pathsel: degrade epoch %d outside (0, %d)", p.DegradeEpoch, p.Epochs)
	}
	return nil
}

// SelectionRegret compares the selection policies on a time-varying
// three-upstream cell: every epoch each policy's delivered throughput
// is scored against the per-epoch oracle (the best single path), and
// the figure plots the mean cumulative regret over the decision
// rounds. A policy that reacts slowly to the scheduled degradation —
// or chases noise before it — accumulates regret visibly. Units are
// the (policy, replication) pairs.
func SelectionRegret(p PathselParams, sc Scale) (*Figure, error) {
	type unit struct {
		policy int
		res    *pathsel.Result
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return Run(Scenario[unit]{
		Seed:  p.Seed,
		Units: len(p.Policies) * sc.Reps,
		RunOne: func(m *probe.TrainMeter, u int, _ sim.Stream) (unit, error) {
			pol, rep := u/sc.Reps, u%sc.Reps
			res, err := pathsel.Run(p.config(p.Policies[pol], p.Hysteresis), rep, m)
			return unit{policy: pol, res: res}, err
		},
		Reduce: func(units []unit) (*Figure, error) {
			fig := &Figure{
				ID:     "selection-regret",
				Title:  "Cumulative selection regret on a degrading upstream",
				XLabel: "decision epoch",
				YLabel: "cumulative regret (Mb/s · epochs)",
			}
			for pol, name := range p.Policies {
				cum := make([]float64, p.Epochs)
				n := 0
				for _, u := range units {
					if u.policy != pol {
						continue
					}
					n++
					run := 0.0
					for k, ep := range u.res.Epochs {
						run += ep.RegretBps / 1e6
						cum[k] += run
					}
				}
				s := Series{Name: string(name)}
				for k := range cum {
					s.X = append(s.X, float64(k+1))
					s.Y = append(s.Y, cum[k]/float64(n))
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

// FailoverLag sweeps the hysteresis margin and plots how many decision
// rounds each policy needs to abandon the degrading path once its
// scheduled collapse fires — the stability-vs-reactivity trade the
// margin buys. A lag of 1 is the immediate next decision; runs whose
// selection never moves are censored at the remaining round count.
// Units are the (policy, margin, replication) triples.
func FailoverLag(p PathselParams, sc Scale) (*Figure, error) {
	type unit struct {
		policy, hyst int
		lag          float64
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(p.HystSweep) == 0 {
		return nil, fmt.Errorf("experiments: pathsel: empty hysteresis sweep")
	}
	nH := len(p.HystSweep)
	return Run(Scenario[unit]{
		Seed:  p.Seed + 1,
		Units: len(p.Policies) * nH * sc.Reps,
		RunOne: func(m *probe.TrainMeter, u int, _ sim.Stream) (unit, error) {
			pol, rest := u/(nH*sc.Reps), u%(nH*sc.Reps)
			hy, rep := rest/sc.Reps, rest%sc.Reps
			res, err := pathsel.Run(p.config(p.Policies[pol], p.HystSweep[hy]), rep, m)
			if err != nil {
				return unit{}, err
			}
			return unit{policy: pol, hyst: hy,
				lag: float64(res.SwitchLag(p.DegradeEpoch - 1))}, nil
		},
		Reduce: func(units []unit) (*Figure, error) {
			fig := &Figure{
				ID:     "failover-lag",
				Title:  "Failover lag vs hysteresis margin after a scheduled degradation",
				XLabel: "hysteresis margin",
				YLabel: "mean lag (epochs)",
			}
			for pol, name := range p.Policies {
				sums := make([]float64, nH)
				counts := make([]int, nH)
				for _, u := range units {
					if u.policy != pol {
						continue
					}
					sums[u.hyst] += u.lag
					counts[u.hyst]++
				}
				s := Series{Name: string(name)}
				for h, margin := range p.HystSweep {
					s.X = append(s.X, margin)
					s.Y = append(s.Y, sums[h]/float64(counts[h]))
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

package experiments

import (
	"errors"
	"fmt"

	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// This file holds the heterogeneous-cell experiments: the paper
// derives its access-delay transient on a homogeneous plain-DCF cell,
// but real 802.11 deployments mix 802.11e EDCA access categories and
// per-station modulation rates — and both change the contention
// dynamics the dispersion estimator reads. The EDCA transient asks how
// the probing flow's category reshapes the transient the MSER
// correction must remove; the rate-anomaly experiment asks what a
// dispersion measurement returns when a slow sender drags the cell's
// achievable throughput down.

// EDCATransientParams configures the per-category transient
// experiment: the Figure-6 access-delay transient with the probing
// station assigned each 802.11e access category in turn, against fixed
// best-effort cross-traffic.
type EDCATransientParams struct {
	// ACs are the probing station's categories, one curve each.
	ACs []phy.AccessCategory
	// CrossAC is the contending station's category.
	CrossAC      phy.AccessCategory
	ProbeRateBps float64
	TrainLen     int
	CrossRateBps float64
	PacketSize   int
	Show         int // packet indices plotted
	Seed         int64
}

// DefaultEDCATransient mirrors the Figure-6 scenario with the probe on
// plain DCF, voice, best-effort and background against a best-effort
// contender.
func DefaultEDCATransient() EDCATransientParams {
	return EDCATransientParams{
		ACs:          []phy.AccessCategory{phy.ACLegacy, phy.ACVoice, phy.ACBestEffort, phy.ACBackground},
		CrossAC:      phy.ACBestEffort,
		ProbeRateBps: 5e6,
		TrainLen:     1000,
		CrossRateBps: 4e6,
		PacketSize:   1500,
		Show:         150,
		Seed:         31,
	}
}

// curveLink is the measured cell of one access-category curve, exposed
// as a method so the spec↔hand-wired equivalence tests compare against
// the exact construction the driver runs.
func (p EDCATransientParams) curveLink(curve int) probe.Link {
	return probe.Link{
		ProbeSize: p.PacketSize,
		ProbeAC:   p.ACs[curve],
		Contenders: []probe.Flow{
			{RateBps: p.CrossRateBps, Size: p.PacketSize, AC: p.CrossAC},
		},
		Seed: p.Seed + int64(curve)*1013,
	}
}

// EDCATransient reproduces the mean access-delay transient of Figure 6
// once per probing access category. The transient exists because early
// probe packets find the medium idle and later ones queue behind
// saturated contention; a high-priority category (short AIFS, small
// CWmin) both lowers the steady-state access delay and shortens the
// transient, while AC_BK's long AIFS deepens it — so the measurement
// bias the paper corrects is itself a function of the probe's QoS
// class. Units are the (category, replication) pairs.
func EDCATransient(p EDCATransientParams, sc Scale) (*Figure, error) {
	names := make([]string, len(p.ACs))
	links := make([]probe.Link, len(p.ACs))
	for c, ac := range p.ACs {
		names[c] = fmt.Sprintf("probe %s", ac)
		links[c] = p.curveLink(c)
	}
	return meanDelayFigure("edca-transient", "Mean access delay vs probe packet number per access category",
		p.Seed, names, links, p.TrainLen, p.ProbeRateBps, p.Show, sc)
}

// RateAnomalyParams configures the heterogeneous-rate bias experiment:
// a short-train dispersion estimate next to the actual saturated share
// as the contender's modulation rate degrades.
type RateAnomalyParams struct {
	// ContenderRates are the contender's data rates in bit/s, one
	// x-axis point each (the probe stays at the PHY rate).
	ContenderRates []float64
	// SatProbeBps is the saturating probe rate used for both the train
	// input rate and the steady-state share measurement.
	SatProbeBps  float64
	TrainLen     int
	CrossRateBps float64
	PacketSize   int
	Seed         int64
}

// DefaultRateAnomaly degrades one saturated contender through the
// 802.11b rate ladder (11, 5.5, 2, 1 Mb/s).
func DefaultRateAnomaly() RateAnomalyParams {
	return RateAnomalyParams{
		ContenderRates: []float64{11e6, 5.5e6, 2e6, 1e6},
		SatProbeBps:    10e6,
		TrainLen:       20,
		CrossRateBps:   4.5e6,
		PacketSize:     1500,
		Seed:           32,
	}
}

// RateAnomaly measures the 802.11 performance-anomaly bias of
// dispersion probing: DCF shares transmission opportunities, not
// airtime, so one slow contender drags every station's carried rate
// toward its own — and a short probing train, already biased high by
// the access-delay transient, now overestimates a share that has
// quietly collapsed. For each contender data rate the figure plots the
// short-train dispersion estimate next to the probe's actual
// steady-state carried rate at the same saturating offered rate; the
// widening gap toward the slow end is the compounded bias. Units are
// the (rate point, replication-or-steady) pairs: per rate point,
// sc.Reps train replications plus one steady-state measurement.
func RateAnomaly(p RateAnomalyParams, sc Scale) (*Figure, error) {
	perPoint := sc.Reps + 1
	dur := sim.FromSeconds(sc.SteadySeconds)
	link := func(point int) probe.Link {
		return probe.Link{
			ProbeSize: p.PacketSize,
			Contenders: []probe.Flow{{
				RateBps:     p.CrossRateBps,
				Size:        p.PacketSize,
				DataRateBps: p.ContenderRates[point],
			}},
			Seed: p.Seed + int64(point)*1117,
		}
	}
	// unit carries either one train replication's sample or the
	// point's steady-state probe rate, tagged by kind.
	type unit struct {
		point  int
		steady bool
		rate   float64
		sample probe.TrainSample
	}
	plans := make([]*probe.TrainPlan, len(p.ContenderRates))
	return Run(Scenario[unit]{
		Seed:  p.Seed,
		Units: len(p.ContenderRates) * perPoint,
		Build: func() error {
			for point, r := range p.ContenderRates {
				if r <= 0 {
					return fmt.Errorf("experiments: non-positive contender rate %g", r)
				}
				plan, err := probe.PlanTrain(link(point), p.TrainLen, p.SatProbeBps)
				if err != nil {
					return err
				}
				plans[point] = plan
			}
			return nil
		},
		RunOne: func(m *probe.TrainMeter, u int, _ sim.Stream) (unit, error) {
			point, k := u/perPoint, u%perPoint
			if k == sc.Reps {
				ss, err := probe.MeasureSteadyState(link(point), p.SatProbeBps, dur)
				if err != nil {
					return unit{}, err
				}
				return unit{point: point, steady: true, rate: ss.ProbeRate}, nil
			}
			s, err := plans[point].MeasureOne(m, k)
			return unit{point: point, sample: s}, err
		},
		Reduce: func(units []unit) (*Figure, error) {
			fig := &Figure{
				ID:     "rate-anomaly",
				Title:  "Dispersion estimate vs carried share under the 802.11 rate anomaly",
				XLabel: "contender data rate (Mb/s)",
				YLabel: "probe rate (Mb/s)",
			}
			train := Series{Name: fmt.Sprintf("%d-packet train estimate", p.TrainLen)}
			steady := Series{Name: "steady-state carried rate"}
			for point := range p.ContenderRates {
				x := p.ContenderRates[point] / 1e6
				var samples []probe.TrainSample
				for _, u := range units {
					if u.point != point {
						continue
					}
					if u.steady {
						steady.X = append(steady.X, x)
						steady.Y = append(steady.Y, u.rate/1e6)
						continue
					}
					samples = append(samples, u.sample)
				}
				ts := probe.TrainStats{L: p.PacketSize, Samples: samples}
				est, err := ts.RateEstimate()
				if errors.Is(err, probe.ErrNoEstimate) {
					continue // no usable dispersion at this point: skip, don't plot 0
				}
				if err != nil {
					return nil, err
				}
				train.X = append(train.X, x)
				train.Y = append(train.Y, est/1e6)
			}
			fig.Series = append(fig.Series, train, steady)
			return fig, nil
		},
	}, sc)
}

package experiments

import (
	"fmt"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
	"csmabw/internal/traffic"
)

// TransientParams configures the access-delay transient experiments
// (Figures 6-9): a probing train against contending cross-traffic,
// replicated many times, analysed per packet index.
type TransientParams struct {
	ProbeRateBps float64
	TrainLen     int
	Contenders   []probe.Flow
	PacketSize   int
	Seed         int64
	// Base, when non-nil, is the complete measured cell — channel,
	// topology, EDCA, FIFO cross flows and all — typically compiled
	// from a scenario spec. It replaces the cell the scalar fields
	// above would assemble; ProbeRateBps and TrainLen still shape the
	// probing plan, and Seed should equal Base.Seed so the substream
	// tree and the link agree.
	Base *probe.Link
}

// DefaultFig6 mirrors the paper's Figure 6/7 scenario: probe at 5 Mb/s,
// contending Poisson cross-traffic at 4 Mb/s, 1000-packet trains.
func DefaultFig6() TransientParams {
	return TransientParams{
		ProbeRateBps: 5e6,
		TrainLen:     1000,
		Contenders:   []probe.Flow{{RateBps: 4e6, Size: 1500}},
		PacketSize:   1500,
		Seed:         6,
	}
}

// DefaultFig8 mirrors Figure 8: probe 8 Mb/s, cross 2 Mb/s.
func DefaultFig8() TransientParams {
	return TransientParams{
		ProbeRateBps: 8e6,
		TrainLen:     600,
		Contenders:   []probe.Flow{{RateBps: 2e6, Size: 1500}},
		PacketSize:   1500,
		Seed:         8,
	}
}

// DefaultFig9 mirrors Figure 9's complex case: four contenders with
// packet sizes {40, 576, 1000, 1500} bytes at {0.1, 0.5, 0.75, 2} Mb/s
// and a 0.5 Mb/s probe.
func DefaultFig9() TransientParams {
	return TransientParams{
		ProbeRateBps: 0.5e6,
		TrainLen:     300,
		Contenders: []probe.Flow{
			{RateBps: 0.1e6, Size: 40},
			{RateBps: 0.5e6, Size: 576},
			{RateBps: 0.75e6, Size: 1000},
			{RateBps: 2e6, Size: 1500},
		},
		PacketSize: 1500,
		Seed:       9,
	}
}

func (p TransientParams) link() probe.Link {
	if p.Base != nil {
		return *p.Base
	}
	return probe.Link{
		ProbeSize:  p.PacketSize,
		Contenders: p.Contenders,
		Seed:       p.Seed,
	}
}

// trainScenario is the shared skeleton of the transient drivers: one
// train plan per measured cell, resolved once in Build; one
// engine-reusing meter per worker; and units laid out cell-major —
// unit u is replication u%reps of cell u/reps, a pure function of
// (cell, rep) the meter never changes. Callers fill in Reduce.
func trainScenario(seed int64, links []probe.Link, n int, rateBps float64, reps int) Scenario[probe.TrainSample] {
	plans := make([]*probe.TrainPlan, len(links))
	return Scenario[probe.TrainSample]{
		Seed:  seed,
		Units: len(links) * reps,
		Build: func() error {
			for c, l := range links {
				plan, err := probe.PlanTrain(l, n, rateBps)
				if err != nil {
					return err
				}
				plans[c] = plan
			}
			return nil
		},
		RunOne: func(m *probe.TrainMeter, u int, _ sim.Stream) (probe.TrainSample, error) {
			return plans[u/reps].MeasureOne(m, u%reps)
		},
	}
}

// rows converts ordered replication samples to the per-replication
// access-delay (seconds) and queue-length matrices the analyses use.
func rows(samples []probe.TrainSample) (delays, queues [][]float64) {
	ts := &probe.TrainStats{Samples: samples}
	return ts.DelaysByIndex(), ts.QueueByIndex()
}

// meanDelayFigure is the one Figure-6 driver: the mean access delay of
// each of the first show probe packets across sc.Reps replications,
// one curve per measured cell (links[c], plotted as names[c]), every
// cell probed with n-packet trains at rateBps. Fig6MeanAccessDelay,
// the scenario-spec transient and the EDCA and frame-loss variants all
// render through it, so their curves share one reduction.
func meanDelayFigure(id, title string, seed int64, names []string, links []probe.Link, n int, rateBps float64, show int, sc Scale) (*Figure, error) {
	scen := trainScenario(seed, links, n, rateBps, sc.Reps)
	scen.Reduce = func(samples []probe.TrainSample) (*Figure, error) {
		fig := &Figure{ID: id, Title: title, XLabel: "packet #", YLabel: "access delay (ms)"}
		for c, name := range names {
			delays, _ := rows(samples[c*sc.Reps : (c+1)*sc.Reps])
			means := stats.RunningMeans(delays)
			s := Series{Name: name}
			for i := 0; i < show && i < len(means); i++ {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, means[i]*1e3)
			}
			fig.Series = append(fig.Series, s)
		}
		return fig, nil
	}
	return Run(scen, sc)
}

// Fig6MeanAccessDelay reproduces Figure 6: the mean access delay of
// each of the first `show` probe packets across replications, exposing
// the transient acceleration of early packets.
func Fig6MeanAccessDelay(p TransientParams, sc Scale, show int) (*Figure, error) {
	return meanDelayFigure("fig06", "Mean access delay vs probe packet number", p.Seed,
		[]string{"mean access delay (ms)"}, []probe.Link{p.link()}, p.TrainLen, p.ProbeRateBps, show, sc)
}

// Fig7Histograms reproduces Figure 7: the access-delay histogram of the
// first packet against that of a late (steady-state) packet.
func Fig7Histograms(p TransientParams, sc Scale, latePacket, bins int) (*Figure, error) {
	scen := trainScenario(p.Seed, []probe.Link{p.link()}, p.TrainLen, p.ProbeRateBps, sc.Reps)
	scen.Reduce = func(samples []probe.TrainSample) (*Figure, error) {
		delays, _ := rows(samples)
		first := stats.Column(delays, 0)
		lateIdx := latePacket
		if lateIdx >= p.TrainLen {
			lateIdx = p.TrainLen - 1
		}
		late := stats.Column(delays, lateIdx)
		if len(first) == 0 || len(late) == 0 {
			return nil, fmt.Errorf("experiments: no samples for histogram")
		}
		// Shared range across both histograms.
		lo, hi := first[0], first[0]
		for _, v := range append(append([]float64{}, first...), late...) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi == lo {
			hi = lo + 1e-6
		}
		h1 := stats.NewHistogram(first, lo, hi, bins)
		h2 := stats.NewHistogram(late, lo, hi, bins)
		s1 := Series{Name: "packet 1"}
		s2 := Series{Name: fmt.Sprintf("packet %d", lateIdx+1)}
		for i := 0; i < bins; i++ {
			x := h1.BinCenter(i) * 1e3 // ms
			s1.X = append(s1.X, x)
			s1.Y = append(s1.Y, float64(h1.Counts[i]))
			s2.X = append(s2.X, x)
			s2.Y = append(s2.Y, float64(h2.Counts[i]))
		}
		return &Figure{
			ID:     "fig07",
			Title:  "Access delay histograms: first vs late packet",
			XLabel: "access delay (ms)",
			YLabel: "count",
			Series: []Series{s1, s2},
		}, nil
	}
	return Run(scen, sc)
}

// KSOptions configures the per-index KS analysis of Figures 8 and 9.
type KSOptions struct {
	// Packets is how many leading packet indices to test.
	Packets int
	// TailFrom is the index from which replications are pooled as the
	// steady-state distribution (the paper pools "the last 500 packets").
	TailFrom int
	// Alpha is the KS significance (paper: 95% -> 0.05).
	Alpha float64
	// Interpolate applies the paper's footnote-2 ECDF interpolation.
	Interpolate bool
}

// DefaultKSOptions matches the paper's setup for a train of length n.
func DefaultKSOptions(trainLen int) KSOptions {
	tail := trainLen / 2
	return KSOptions{Packets: 100, TailFrom: tail, Alpha: 0.05, Interpolate: true}
}

// FigKS reproduces Figures 8 (top+bottom) and 9: the KS statistic of
// each packet index's access-delay distribution against the
// steady-state pool, the 95% threshold line, and (when queue samples
// exist) the mean contender queue length per index.
func FigKS(id string, p TransientParams, sc Scale, opt KSOptions) (*Figure, error) {
	scen := trainScenario(p.Seed, []probe.Link{p.link()}, p.TrainLen, p.ProbeRateBps, sc.Reps)
	scen.Reduce = func(samples []probe.TrainSample) (*Figure, error) {
		delays, queues := rows(samples)
		tail := stats.Tail(delays, opt.TailFrom)
		if len(tail) == 0 {
			return nil, fmt.Errorf("experiments: empty steady-state pool (TailFrom=%d)", opt.TailFrom)
		}
		// The steady-state pool is large (reps × tail indices) and
		// every packet index tests against it: sort it once.
		tailECDF := stats.NewECDF(tail)
		ksS := Series{Name: "KS value"}
		thrS := Series{Name: "threshold 95% CI"}
		if opt.Packets > p.TrainLen {
			opt.Packets = p.TrainLen
		}
		for i := 0; i < opt.Packets; i++ {
			col := stats.Column(delays, i)
			if len(col) == 0 {
				continue
			}
			var res stats.KSResult
			if opt.Interpolate {
				res = stats.KSTwoSampleInterpECDF(col, tailECDF, opt.Alpha)
			} else {
				res = stats.KSTwoSampleECDF(col, tailECDF, opt.Alpha)
			}
			x := float64(i + 1)
			ksS.X = append(ksS.X, x)
			ksS.Y = append(ksS.Y, res.D)
			thrS.X = append(thrS.X, x)
			thrS.Y = append(thrS.Y, res.Threshold)
		}
		fig := &Figure{
			ID:     id,
			Title:  "KS test of per-packet access delay vs steady state",
			XLabel: "packet #",
			YLabel: "KS value",
			Series: []Series{ksS, thrS},
		}
		if len(queues) > 0 && len(queues[0]) > 0 {
			qMeans := stats.RunningMeans(queues)
			qS := Series{Name: "mean contender queue (pkts)"}
			for i := 0; i < opt.Packets && i < len(qMeans); i++ {
				qS.X = append(qS.X, float64(i+1))
				qS.Y = append(qS.Y, qMeans[i])
			}
			fig.Series = append(fig.Series, qS)
		}
		return fig, nil
	}
	return Run(scen, sc)
}

// Fig10Params configures the transient-duration study of Figure 10.
type Fig10Params struct {
	ProbeLoadErlang float64   // paper: 1 Erlang
	CrossLoads      []float64 // swept offered cross loads, Erlangs
	PacketSize      int
	TrainLen        int
	Tolerances      []float64 // paper: 0.1 and 0.01
	Seed            int64
	// Base, when non-nil, is the complete measured cell the load sweep
	// runs over (typically spec-compiled): each point overrides its
	// first contender's rate with the swept cross load, adding that
	// contender if the cell has none.
	Base *probe.Link
}

// DefaultFig10 mirrors the paper: probe at 1 Erlang, cross loads up to
// 1 Erlang, tolerances 0.1 and 0.01.
func DefaultFig10() Fig10Params {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return Fig10Params{
		ProbeLoadErlang: 1.0,
		CrossLoads:      loads,
		PacketSize:      1500,
		TrainLen:        500,
		Tolerances:      []float64{0.1, 0.01},
		Seed:            10,
	}
}

// Fig10TransientDuration estimates, for each offered cross load, the
// first probe packet whose mean access delay lies (and stays) within
// each tolerance of the steady-state mean. Each cross load is an
// independent unit on the worker pool; its replications run serially
// on the unit's train meter.
func Fig10TransientDuration(p Fig10Params, sc Scale) (*Figure, error) {
	phyP := probe.Link{ProbeSize: p.PacketSize, Seed: p.Seed}.WithDefaults().Phy
	if p.Base != nil {
		phyP = p.Base.WithDefaults().Phy
	}
	probeRate := traffic.RateForLoad(phyP, p.ProbeLoadErlang, p.PacketSize)
	return Run(Scenario[[]int]{
		Seed:  p.Seed,
		Units: len(p.CrossLoads),
		RunOne: func(m *probe.TrainMeter, li int, _ sim.Stream) ([]int, error) {
			crossRate := traffic.RateForLoad(phyP, p.CrossLoads[li], p.PacketSize)
			link := probe.Link{
				ProbeSize:  p.PacketSize,
				Contenders: []probe.Flow{{RateBps: crossRate, Size: p.PacketSize}},
			}
			if p.Base != nil {
				link = cloneLink(p.Base)
				if len(link.Contenders) > 0 {
					link.Contenders[0].RateBps = crossRate
				} else {
					link.Contenders = []probe.Flow{{RateBps: crossRate, Size: p.PacketSize}}
				}
			}
			link.Seed = p.Seed + int64(li)*977
			ts, err := measureTrainOn(m, link, p.TrainLen, probeRate, sc.Reps)
			if err != nil {
				return nil, err
			}
			delays, _ := rows(ts.Samples)
			means := stats.RunningMeans(delays)
			// Steady state: mean over the last quarter of indices.
			tailFrom := len(means) * 3 / 4
			steady := stats.Mean(means[tailFrom:])
			lens := make([]int, len(p.Tolerances))
			for ti, tol := range p.Tolerances {
				lens[ti] = stats.TransientLength(means[:tailFrom], steady, tol)
			}
			return lens, nil
		},
		Reduce: func(byLoad [][]int) (*Figure, error) {
			series := make([]Series, len(p.Tolerances))
			for ti, tol := range p.Tolerances {
				series[ti] = Series{Name: fmt.Sprintf("tolerance %g", tol)}
			}
			for li, lens := range byLoad {
				for ti := range p.Tolerances {
					series[ti].X = append(series[ti].X, p.CrossLoads[li])
					series[ti].Y = append(series[ti].Y, float64(lens[ti]))
				}
			}
			return &Figure{
				ID:     "fig10",
				Title:  "Estimated transient duration vs offered cross-traffic load (probe load 1 Erlang)",
				XLabel: "cross load (Erlang)",
				YLabel: "transient length (packets)",
				Series: series,
			}, nil
		},
	}, sc)
}

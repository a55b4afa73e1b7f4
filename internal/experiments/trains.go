package experiments

import (
	"errors"
	"fmt"

	"csmabw/internal/core"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// TrainRRCParams configures the short-train rate response experiments
// (Figures 13 and 15): dispersion-based curves L/E[gO] vs ri for trains
// of a few packets, compared with the steady-state response.
type TrainRRCParams struct {
	TrainLens     []int   // paper: 3, 10, 50
	ContendingBps float64 // contending cross-traffic
	FIFOCrossBps  float64 // 0 for Figure 13, >0 for Figure 15
	PacketSize    int
	MaxProbeBps   float64
	Seed          int64
	// Base, when non-nil, is the complete measured cell — channel,
	// topology, EDCA and all — typically compiled from a scenario spec.
	// It replaces the cell the scalar fields above would assemble; the
	// per-unit seed is still applied on top.
	Base *probe.Link
}

// DefaultFig13 matches the paper's Figure 13: no FIFO cross-traffic.
func DefaultFig13() TrainRRCParams {
	return TrainRRCParams{
		TrainLens:     []int{3, 10, 50},
		ContendingBps: 4e6,
		PacketSize:    1500,
		MaxProbeBps:   10e6,
		Seed:          13,
	}
}

// DefaultFig15 matches Figure 15: the complete system with FIFO
// cross-traffic present.
func DefaultFig15() TrainRRCParams {
	p := DefaultFig13()
	p.FIFOCrossBps = 1e6
	p.ContendingBps = 2.5e6
	p.Seed = 15
	return p
}

// link builds the measured link for one unit.
func (p TrainRRCParams) link(seed int64) probe.Link {
	if p.Base != nil {
		l := cloneLink(p.Base)
		l.Seed = seed
		return l
	}
	l := probe.Link{
		ProbeSize: p.PacketSize,
		Seed:      seed,
	}
	if p.ContendingBps > 0 {
		l.Contenders = []probe.Flow{{RateBps: p.ContendingBps, Size: p.PacketSize}}
	}
	if p.FIFOCrossBps > 0 {
		l.FIFOCross = []probe.Flow{{RateBps: p.FIFOCrossBps, Size: p.PacketSize}}
	}
	return l
}

// measureTrainOn runs reps replications of an n-packet train at rateBps
// over l on the unit's meter, one after another — the Scenario already
// parallelizes across units — and gathers them exactly as
// probe.MeasureTrain would.
func measureTrainOn(m *probe.TrainMeter, l probe.Link, n int, rateBps float64, reps int) (*probe.TrainStats, error) {
	plan, err := probe.PlanTrain(l, n, rateBps)
	if err != nil {
		return nil, err
	}
	ts := &probe.TrainStats{N: n, GI: plan.GI(), L: l.WithDefaults().ProbeSize, Reps: reps,
		Samples: make([]probe.TrainSample, reps)}
	for rep := range ts.Samples {
		if ts.Samples[rep], err = plan.MeasureOne(m, rep); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// TrainRRC produces the dispersion-inferred rate response L/E[gO] for
// each configured train length, plus the steady-state curve measured
// with long constant-rate probing. The units of work are the (curve,
// rate point) pairs: unit u measures point u%P of curve u/P, where
// curve 0 is the steady-state sweep and curve k>0 is the k-th train
// length.
func TrainRRC(id string, p TrainRRCParams, sc Scale) (*Figure, error) {
	rates := sweep(0.5e6, p.MaxProbeBps, sc.SweepPoints)
	nPoints := len(rates)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		ok   bool
		x, y float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: nPoints * (1 + len(p.TrainLens)),
		RunOne: func(m *probe.TrainMeter, u int, _ sim.Stream) (pt, error) {
			curve, i := u/nPoints, u%nPoints
			ri := rates[i]
			if curve == 0 {
				ss, err := probe.MeasureSteadyState(p.link(p.Seed+int64(i)*37), ri, dur)
				if err != nil {
					return pt{}, err
				}
				return pt{ok: true, x: ri / 1e6, y: ss.ProbeRate / 1e6}, nil
			}
			n := p.TrainLens[curve-1]
			ts, err := measureTrainOn(m, p.link(p.Seed+int64(n*1000+i)), n, ri, sc.Reps)
			if err != nil {
				return pt{}, err
			}
			est, err := ts.RateEstimate()
			if errors.Is(err, probe.ErrNoEstimate) {
				// No usable dispersion at this operating point: leave the
				// point out of the curve instead of plotting a bogus 0.
				return pt{}, nil
			}
			if err != nil {
				return pt{}, err
			}
			return pt{ok: true, x: ri / 1e6, y: est / 1e6}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     id,
				Title:  "Dispersion-inferred rate response of short trains vs steady state",
				XLabel: "ri (Mb/s)",
				YLabel: "L/E[gO] (Mb/s)",
			}
			for curve := 0; curve <= len(p.TrainLens); curve++ {
				s := Series{Name: "steady state"}
				if curve > 0 {
					s.Name = fmt.Sprintf("train of %d packets", p.TrainLens[curve-1])
				}
				for _, pt := range pts[curve*nPoints : (curve+1)*nPoints] {
					if !pt.ok {
						continue
					}
					s.X = append(s.X, pt.x)
					s.Y = append(s.Y, pt.y)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

// Fig16Params configures the packet-pair experiment of Figure 16.
type Fig16Params struct {
	CrossRates  []float64 // swept contending cross-traffic rates, bit/s
	PacketSize  int
	SaturateBps float64 // probing rate used to measure the actual response
	Seed        int64
	// Base, when non-nil, is the complete measured cell the sweep runs
	// over (typically spec-compiled): each level overrides its first
	// contender's rate with the swept cross-traffic rate, adding that
	// contender if the cell has none and dropping it at the zero level.
	Base *probe.Link
}

// DefaultFig16 sweeps cross-traffic 0..10 Mb/s as in the paper.
func DefaultFig16() Fig16Params {
	var rates []float64
	for r := 0.0; r <= 10e6; r += 1e6 {
		rates = append(rates, r)
	}
	return Fig16Params{CrossRates: rates, PacketSize: 1500, SaturateBps: 12e6, Seed: 16}
}

// Fig16PacketPair compares, for each cross-traffic level, the actual
// achievable throughput (fluid response, measured with a saturating
// long flow) against the packet-pair dispersion inference. The pair
// overestimates everywhere except at zero cross-traffic (Section 7.3).
// Each cross-traffic level is an independent unit on the worker pool.
func Fig16PacketPair(p Fig16Params, sc Scale) (*Figure, error) {
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		x, fluid, pair float64
		pairOK         bool
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: len(p.CrossRates),
		RunOne: func(_ *probe.TrainMeter, i int, _ sim.Stream) (pt, error) {
			cr := p.CrossRates[i]
			// Workers pinned to 1: the Scenario parallelizes across cross-traffic levels.
			l := probe.Link{ProbeSize: p.PacketSize, Seed: p.Seed + int64(i)*61, Workers: 1}
			if p.Base != nil {
				l = cloneLink(p.Base)
				l.Seed = p.Seed + int64(i)*61
				l.Workers = 1
				l.Contenders = nil
			}
			if cr > 0 {
				if p.Base != nil && len(p.Base.Contenders) > 0 {
					l.Contenders = []probe.Flow{p.Base.Contenders[0]}
					l.Contenders[0].RateBps = cr
				} else {
					l.Contenders = []probe.Flow{{RateBps: cr, Size: p.PacketSize}}
				}
			}
			ss, err := probe.MeasureSteadyState(l, p.SaturateBps, dur)
			if err != nil {
				return pt{}, err
			}
			out := pt{x: cr / 1e6, fluid: ss.ProbeRate / 1e6}
			est, err := probe.MeasurePair(l, sc.Reps)
			switch {
			case errors.Is(err, probe.ErrNoEstimate):
				// The fluid point stands; the pair curve skips this level
				// instead of plotting a bogus 0 bit/s inference.
			case err != nil:
				return pt{}, err
			default:
				out.pair, out.pairOK = est/1e6, true
			}
			return out, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fluid := Series{Name: "fluid response (actual)"}
			pair := Series{Name: "packet pair inference"}
			for _, pt := range pts {
				fluid.X = append(fluid.X, pt.x)
				fluid.Y = append(fluid.Y, pt.fluid)
				if !pt.pairOK {
					continue
				}
				pair.X = append(pair.X, pt.x)
				pair.Y = append(pair.Y, pt.pair)
			}
			return &Figure{
				ID:     "fig16",
				Title:  "Packet-pair inference vs actual achievable throughput",
				XLabel: "cross-traffic rate (Mb/s)",
				YLabel: "achievable throughput (Mb/s)",
				Series: []Series{fluid, pair},
			}, nil
		},
	}, sc)
}

// Fig17Params configures the MSER-corrected measurement of Figure 17.
type Fig17Params struct {
	TrainLen      int // paper: 20
	MSERBatch     int // paper: MSER-2
	ContendingBps float64
	PacketSize    int
	MaxProbeBps   float64
	Seed          int64
	// Base, when non-nil, is the complete measured cell — typically
	// spec-compiled — replacing the one the scalar fields would build;
	// the per-point seed is still applied on top.
	Base *probe.Link
}

// DefaultFig17 matches the paper's 20-packet trains with MSER-2.
func DefaultFig17() Fig17Params {
	return Fig17Params{
		TrainLen:      20,
		MSERBatch:     2,
		ContendingBps: 4e6,
		PacketSize:    1500,
		MaxProbeBps:   10e6,
		Seed:          17,
	}
}

// Fig17MSER compares the raw 20-packet-train rate response against the
// MSER-m corrected one and the steady-state curve (Section 7.4: the
// corrected curve approaches steady state without longer trains). Each
// rate point is an independent unit on the worker pool; points whose
// trains were entirely dropped are skipped, as in the paper's ensembles.
func Fig17MSER(p Fig17Params, sc Scale) (*Figure, error) {
	rates := sweep(1e6, p.MaxProbeBps, sc.SweepPoints)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		ok                        bool
		x, steady, raw, corrected float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: len(rates),
		RunOne: func(m *probe.TrainMeter, i int, _ sim.Stream) (pt, error) {
			ri := rates[i]
			l := probe.Link{
				ProbeSize:  p.PacketSize,
				Contenders: []probe.Flow{{RateBps: p.ContendingBps, Size: p.PacketSize}},
				Seed:       p.Seed + int64(i)*41,
			}
			if p.Base != nil {
				l = cloneLink(p.Base)
				l.Seed = p.Seed + int64(i)*41
			}
			ss, err := probe.MeasureSteadyState(l, ri, dur)
			if err != nil {
				return pt{}, err
			}
			ts, err := measureTrainOn(m, l, p.TrainLen, ri, sc.Reps)
			if err != nil {
				return pt{}, err
			}
			// MSER correction applied to the ensemble: the per-position mean
			// gap series locates the transient, every train is truncated
			// there, and the remainder averaged (Section 7.4).
			rows := ts.InterDepartureGaps()
			usable := rows[:0]
			for _, gaps := range rows {
				if len(gaps) >= 2 {
					usable = append(usable, gaps)
				}
			}
			if len(usable) == 0 {
				return pt{}, nil
			}
			return pt{
				ok:        true,
				x:         ri / 1e6,
				steady:    ss.ProbeRate / 1e6,
				raw:       core.RateFromGap(p.PacketSize, core.RawGapRows(usable)) / 1e6,
				corrected: core.RateFromGap(p.PacketSize, core.CorrectedGapByPosition(usable, p.MSERBatch)) / 1e6,
			}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			steady := Series{Name: "steady state"}
			raw := Series{Name: fmt.Sprintf("train of %d packets", p.TrainLen)}
			corrected := Series{Name: fmt.Sprintf("train of %d packets (MSER-%d)", p.TrainLen, p.MSERBatch)}
			for _, pt := range pts {
				if !pt.ok {
					continue
				}
				steady.X = append(steady.X, pt.x)
				steady.Y = append(steady.Y, pt.steady)
				raw.X = append(raw.X, pt.x)
				raw.Y = append(raw.Y, pt.raw)
				corrected.X = append(corrected.X, pt.x)
				corrected.Y = append(corrected.Y, pt.corrected)
			}
			return &Figure{
				ID:     "fig17",
				Title:  "MSER-corrected short-train measurement vs raw and steady state",
				XLabel: "ri (Mb/s)",
				YLabel: "L/E[gO] (Mb/s)",
				Series: []Series{steady, raw, corrected},
			}, nil
		},
	}, sc)
}

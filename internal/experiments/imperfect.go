package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// This file holds the imperfect-channel experiments: the scenarios the
// paper's NS2 validation idealizes away (perfect channel, one collision
// domain) but that real CSMA/CA deployments — the measurement targets
// of the paper — live with. Frame loss stretches the output gaps the
// dispersion estimator reads, and hidden terminals both collapse the
// achievable throughput the rate response flattens at and lengthen the
// access-delay transient.

// FERRRCParams configures the lossy-channel rate response experiment:
// the Figure-1 scenario swept at several frame-error rates.
type FERRRCParams struct {
	FERs         []float64 // frame-error rates, one curve each (0 = perfect)
	CrossRateBps float64
	PacketSize   int
	MaxProbeBps  float64
	Seed         int64
}

// DefaultFERRRC sweeps the paper's Figure-1 operating point at 0%, 1%
// and 5% FER.
func DefaultFERRRC() FERRRCParams {
	return FERRRCParams{
		FERs:         []float64{0, 0.01, 0.05},
		CrossRateBps: 4.5e6,
		PacketSize:   1500,
		MaxProbeBps:  10e6,
		Seed:         21,
	}
}

// FERRateResponse sweeps the probing rate and measures the steady-state
// probe output rate under each configured frame-error rate. Loss eats
// into both the achievable throughput and the dispersion the estimator
// reads, so the curves flatten lower as FER grows. Units are the
// (FER, rate point) pairs.
func FERRateResponse(p FERRRCParams, sc Scale) (*Figure, error) {
	rates := sweep(0.25e6, p.MaxProbeBps, sc.SweepPoints)
	nPoints := len(rates)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct{ x, y float64 }
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: nPoints * len(p.FERs),
		Build: func() error {
			for _, fer := range p.FERs {
				if err := (phy.ErrorModel{FER: fer}).Validate(); err != nil {
					return err
				}
			}
			return nil
		},
		RunOne: func(_ *probe.TrainMeter, u int, _ sim.Stream) (pt, error) {
			curve, i := u/nPoints, u%nPoints
			l := probe.Link{
				ProbeSize:  p.PacketSize,
				Contenders: []probe.Flow{{RateBps: p.CrossRateBps, Size: p.PacketSize}},
				Seed:       p.Seed + int64(u)*101,
				Loss:       phy.ErrorModel{FER: p.FERs[curve]},
			}
			ss, err := probe.MeasureSteadyState(l, rates[i], dur)
			if err != nil {
				return pt{}, err
			}
			return pt{x: rates[i] / 1e6, y: ss.ProbeRate / 1e6}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     "fer-rrc",
				Title:  "Steady-state rate response under frame loss",
				XLabel: "ri (Mb/s)",
				YLabel: "probe ro (Mb/s)",
			}
			for c, fer := range p.FERs {
				s := Series{Name: fmt.Sprintf("FER %g%%", fer*100)}
				for _, pt := range pts[c*nPoints : (c+1)*nPoints] {
					s.X = append(s.X, pt.x)
					s.Y = append(s.Y, pt.y)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

// FERTransientParams configures the lossy-channel transient experiment:
// the Figure-6 access-delay transient swept at several frame-error
// rates.
type FERTransientParams struct {
	FERs         []float64
	ProbeRateBps float64
	TrainLen     int
	CrossRateBps float64
	PacketSize   int
	Show         int // packet indices plotted
	Seed         int64
}

// DefaultFERTransient mirrors the Figure-6 scenario at 0%, 1% and 5%
// FER.
func DefaultFERTransient() FERTransientParams {
	return FERTransientParams{
		FERs:         []float64{0, 0.01, 0.05},
		ProbeRateBps: 5e6,
		TrainLen:     1000,
		CrossRateBps: 4e6,
		PacketSize:   1500,
		Show:         150,
		Seed:         22,
	}
}

// curveLink is the measured cell of one FER curve, exposed as a method
// so the spec↔hand-wired equivalence tests compare against the exact
// construction the driver runs.
func (p FERTransientParams) curveLink(curve int) probe.Link {
	return probe.Link{
		ProbeSize:  p.PacketSize,
		Contenders: []probe.Flow{{RateBps: p.CrossRateBps, Size: p.PacketSize}},
		Seed:       p.Seed + int64(curve)*977,
		Loss:       phy.ErrorModel{FER: p.FERs[curve]},
	}
}

// FERTransient reproduces the mean access-delay transient of Figure 6
// under each configured frame-error rate: retransmissions both raise
// the steady-state access delay and stretch the transient the paper's
// probing sequences must outlast. Units are the (FER, replication)
// pairs.
func FERTransient(p FERTransientParams, sc Scale) (*Figure, error) {
	names := make([]string, len(p.FERs))
	links := make([]probe.Link, len(p.FERs))
	for c, fer := range p.FERs {
		names[c] = fmt.Sprintf("FER %g%%", fer*100)
		links[c] = p.curveLink(c)
	}
	return meanDelayFigure("fer-transient", "Mean access delay vs probe packet number under frame loss",
		p.Seed, names, links, p.TrainLen, p.ProbeRateBps, p.Show, sc)
}

// HiddenParams configures the classic hidden-terminal experiment: the
// probing station and one contender send to the common receiver, swept
// over the contender's offered rate, with the stations either in one
// collision domain or hidden from each other.
type HiddenParams struct {
	ProbeRateBps float64
	MaxCrossBps  float64
	PacketSize   int
	RTSThreshold int // payload threshold for the RTS/CTS variant
	Seed         int64
}

// DefaultHidden probes at 5 Mb/s against a contender swept to 6 Mb/s.
func DefaultHidden() HiddenParams {
	return HiddenParams{
		ProbeRateBps: 5e6,
		MaxCrossBps:  6e6,
		PacketSize:   1500,
		RTSThreshold: 256,
		Seed:         23,
	}
}

// hiddenVariants enumerates the three propagation variants of the
// hidden-terminal experiment in plotting order.
func hiddenVariants(p HiddenParams) []struct {
	name string
	topo func() *mac.Topology
	rts  int
} {
	return []struct {
		name string
		topo func() *mac.Topology
		rts  int
	}{
		{"single collision domain", func() *mac.Topology { return nil }, 0},
		{"hidden terminals", mac.HiddenPair, 0},
		{"hidden terminals + RTS/CTS", mac.HiddenPair, p.RTSThreshold},
	}
}

// HiddenTerminal measures the aggregate carried rate (probe plus
// contender) against the contender's offered rate for a single
// collision domain, a hidden pair, and a hidden pair using RTS/CTS.
// Hidden terminals collide without ever sensing each other, collapsing
// the aggregate as load grows; RTS/CTS shortens the vulnerable window
// to the handshake and recovers part of the loss. Units are the
// (variant, rate point) pairs.
func HiddenTerminal(p HiddenParams, sc Scale) (*Figure, error) {
	rates := sweep(0.5e6, p.MaxCrossBps, sc.SweepPoints)
	nPoints := len(rates)
	variants := hiddenVariants(p)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct{ x, y float64 }
	return Run(Scenario[pt]{
		Seed:  p.Seed,
		Units: nPoints * len(variants),
		RunOne: func(_ *probe.TrainMeter, u int, _ sim.Stream) (pt, error) {
			v, i := u/nPoints, u%nPoints
			l := probe.Link{
				ProbeSize:    p.PacketSize,
				Contenders:   []probe.Flow{{RateBps: rates[i], Size: p.PacketSize}},
				Seed:         p.Seed + int64(u)*131,
				Topology:     variants[v].topo(),
				RTSThreshold: variants[v].rts,
			}
			ss, err := probe.MeasureSteadyState(l, p.ProbeRateBps, dur)
			if err != nil {
				return pt{}, err
			}
			return pt{x: rates[i] / 1e6, y: (ss.ProbeRate + ss.CrossRates[0]) / 1e6}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     "hidden",
				Title:  "Aggregate carried rate with and without hidden terminals",
				XLabel: "contender offered rate (Mb/s)",
				YLabel: "aggregate throughput (Mb/s)",
			}
			for v, variant := range variants {
				s := Series{Name: variant.name}
				for _, pt := range pts[v*nPoints : (v+1)*nPoints] {
					s.X = append(s.X, pt.x)
					s.Y = append(s.Y, pt.y)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

package experiments

import (
	"fmt"

	"csmabw/internal/probe"
	"csmabw/internal/scenario"
)

// Driver produces one figure at a given scale with the paper-default
// parameters. Every driver is Scenario-backed, so sc.Workers bounds its
// worker pool and its output is byte-identical at any worker count.
type Driver func(sc Scale) (*Figure, error)

// Entry is one registry figure: its ID, its paper-default driver and
// its spec form. Spec runs the same driver call over a compiled
// scenario cell instead of the paper's; it is nil unless a spec can
// stand in for the figure's whole cell, as for the train-based paper
// figures whose parameters are one measured link plus a probing plan.
type Entry struct {
	ID   string
	Run  Driver
	Spec func(c *scenario.Compiled, sc Scale) (*Figure, error)
}

// bindable builds an entry whose default and spec forms share one
// driver call, so the figure's constants appear once: def yields the
// paper's parameters, bind derives them from a compiled cell.
func bindable[P any](id string, def func() P, bind func(*scenario.Compiled) (P, error), run func(P, Scale) (*Figure, error)) Entry {
	return Entry{
		ID:  id,
		Run: func(sc Scale) (*Figure, error) { return run(def(), sc) },
		Spec: func(c *scenario.Compiled, sc Scale) (*Figure, error) {
			p, err := bind(c)
			if err != nil {
				return nil, err
			}
			return run(p, sc)
		},
	}
}

// specCell is the spec binding every bindable entry shares: the
// compiled cell becomes the driver's Base link and seed, and the
// spec's probe size and train length replace the driver defaults size
// and n when set.
func specCell(c *scenario.Compiled, size, n int) (*probe.Link, int64, int, int) {
	l := c.Link
	if l.ProbeSize > 0 {
		size = l.ProbeSize
	}
	if c.Probing.TrainLen > 0 {
		n = c.Probing.TrainLen
	}
	return &l, l.Seed, size, n
}

// Registry lists the figures in the order they appear in the paper,
// followed by the imperfect-channel extensions. cmd/figures iterates
// this to regenerate the full evaluation, or to render a scenario spec
// through the entries that have a spec form.
func Registry() []Entry {
	return []Entry{
		{ID: "fig01", Run: func(sc Scale) (*Figure, error) { return Fig1SteadyStateRRC(DefaultFig1(), sc) }},
		{ID: "fig04", Run: func(sc Scale) (*Figure, error) { return Fig4CompleteRRC(DefaultFig4(), sc) }},
		bindable("fig06", DefaultFig6, TransientParamsFromCompiled, func(p TransientParams, sc Scale) (*Figure, error) {
			return Fig6MeanAccessDelay(p, sc, 150)
		}),
		bindable("fig07", DefaultFig6, TransientParamsFromCompiled, func(p TransientParams, sc Scale) (*Figure, error) {
			return Fig7Histograms(p, sc, p.TrainLen/2-1, 30)
		}),
		bindable("fig08", DefaultFig8, TransientParamsFromCompiled, func(p TransientParams, sc Scale) (*Figure, error) {
			return FigKS("fig08", p, sc, DefaultKSOptions(p.TrainLen))
		}),
		bindable("fig09", DefaultFig9, TransientParamsFromCompiled, func(p TransientParams, sc Scale) (*Figure, error) {
			opt := DefaultKSOptions(p.TrainLen)
			opt.Packets = 50
			return FigKS("fig09", p, sc, opt)
		}),
		bindable("fig10", DefaultFig10, func(c *scenario.Compiled) (Fig10Params, error) {
			p := DefaultFig10()
			p.Base, p.Seed, p.PacketSize, p.TrainLen = specCell(c, p.PacketSize, p.TrainLen)
			return p, nil
		}, Fig10TransientDuration),
		bindable("fig13", DefaultFig13, func(c *scenario.Compiled) (TrainRRCParams, error) {
			p := DefaultFig13()
			p.Base, p.Seed, p.PacketSize, _ = specCell(c, p.PacketSize, 0)
			return p, nil
		}, func(p TrainRRCParams, sc Scale) (*Figure, error) { return TrainRRC("fig13", p, sc) }),
		// Not bindable: a spec replaces the scalar cell that is fig15's
		// only difference from fig13.
		{ID: "fig15", Run: func(sc Scale) (*Figure, error) { return TrainRRC("fig15", DefaultFig15(), sc) }},
		{ID: "fig16", Run: func(sc Scale) (*Figure, error) { return Fig16PacketPair(DefaultFig16(), sc) }},
		bindable("fig17", DefaultFig17, func(c *scenario.Compiled) (Fig17Params, error) {
			p := DefaultFig17()
			p.Base, p.Seed, p.PacketSize, p.TrainLen = specCell(c, p.PacketSize, p.TrainLen)
			return p, nil
		}, Fig17MSER),
		// Imperfect-channel extensions beyond the paper's validation
		// appendix: frame loss and hidden terminals.
		{ID: "fer-rrc", Run: func(sc Scale) (*Figure, error) { return FERRateResponse(DefaultFERRRC(), sc) }},
		{ID: "fer-transient", Run: func(sc Scale) (*Figure, error) { return FERTransient(DefaultFERTransient(), sc) }},
		{ID: "hidden", Run: func(sc Scale) (*Figure, error) { return HiddenTerminal(DefaultHidden(), sc) }},
		// Heterogeneous-cell extensions: 802.11e EDCA access categories
		// and per-station data rates (the performance anomaly).
		{ID: "edca-transient", Run: func(sc Scale) (*Figure, error) { return EDCATransient(DefaultEDCATransient(), sc) }},
		{ID: "rate-anomaly", Run: func(sc Scale) (*Figure, error) { return RateAnomaly(DefaultRateAnomaly(), sc) }},
		// Closed-loop estimator evaluation: whole estimation campaigns
		// (internal/estimate) scored against measured ground truth.
		{ID: "abest-accuracy", Run: func(sc Scale) (*Figure, error) { return AbestAccuracy(DefaultAbest(), sc) }},
		{ID: "abest-frontier", Run: func(sc Scale) (*Figure, error) { return AbestFrontier(DefaultAbest(), sc) }},
		{ID: "abest-robust", Run: func(sc Scale) (*Figure, error) { return AbestRobust(DefaultAbest(), sc) }},
		{ID: "abest-budget", Run: func(sc Scale) (*Figure, error) { return AbestBudget(DefaultAbest(), sc) }},
		// Time-varying channel extensions: multi-upstream path selection
		// over cells whose parameters change on a schedule mid-run.
		{ID: "selection-regret", Run: func(sc Scale) (*Figure, error) { return SelectionRegret(DefaultPathsel(), sc) }},
		{ID: "failover-lag", Run: func(sc Scale) (*Figure, error) { return FailoverLag(DefaultPathsel(), sc) }},
	}
}

// Lookup returns the default-parameter driver for a figure ID.
func Lookup(id string) (Driver, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q", id)
}

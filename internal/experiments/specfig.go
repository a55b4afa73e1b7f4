package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

// This file bridges the declarative scenario layer to the figure
// drivers: a compiled scenario spec carries a complete measured cell
// (probe.Link) plus a probing plan, and the helpers here run that cell
// through the same Scenario/Run machinery the hand-wired registry
// figures use — so a spec-described cell renders with byte-identical
// reduction code.

// cloneLink copies a measured cell so a per-unit mutation (seed,
// contender rate) cannot race with the other units that share the
// same Base pointer. The flow and schedule slices are the mutable
// references a Link carries; Topology is shared deliberately — the
// drivers never mutate it (the engine clones it when events edit
// edges).
func cloneLink(base *probe.Link) probe.Link {
	l := *base
	if base.FIFOCross != nil {
		l.FIFOCross = append([]probe.Flow(nil), base.FIFOCross...)
	}
	if base.Contenders != nil {
		l.Contenders = append([]probe.Flow(nil), base.Contenders...)
	}
	if base.Schedule != nil {
		l.Schedule = append([]mac.ScheduledEvent(nil), base.Schedule...)
	}
	return l
}

// TransientParamsFromCompiled converts a train-plan scenario into the
// transient-experiment parameters: the compiled cell rides along as
// Base, and the probing plan supplies rate and train length.
func TransientParamsFromCompiled(c *scenario.Compiled) (TransientParams, error) {
	if c.Probing.Plan != scenario.PlanTrain {
		return TransientParams{}, fmt.Errorf("experiments: scenario %q has probing plan %q, want %q", c.Name, c.Probing.Plan, scenario.PlanTrain)
	}
	p := TransientParams{ProbeRateBps: c.Probing.RateBps, Contenders: c.Link.Contenders}
	p.Base, p.Seed, p.PacketSize, p.TrainLen = specCell(c, 1500, 0)
	return p, nil
}

// ScenarioTransient runs the Figure-6-style mean access-delay
// transient on a compiled train-plan scenario. The figure's ID is the
// scenario name so its CSV snapshot is self-describing.
func ScenarioTransient(c *scenario.Compiled, sc Scale) (*Figure, error) {
	p, err := TransientParamsFromCompiled(c)
	if err != nil {
		return nil, err
	}
	return meanDelayFigure(c.Name, "Mean access delay vs probe packet number — "+c.Name, p.Seed,
		[]string{"mean access delay (ms)"}, []probe.Link{p.link()}, p.TrainLen, p.ProbeRateBps, 150, sc)
}

// ScenarioRRC runs the Figure-1-style steady-state rate-response sweep
// on a compiled steady-plan scenario: the probing rate is swept up to
// the spec's steady rate and every flow's carried rate is reported,
// contender series named after the spec's stations.
func ScenarioRRC(c *scenario.Compiled, sc Scale) (*Figure, error) {
	if c.Probing.Plan != scenario.PlanSteady {
		return nil, fmt.Errorf("experiments: scenario %q has probing plan %q, want %q", c.Name, c.Probing.Plan, scenario.PlanSteady)
	}
	base := c.Link
	rates := sweep(0.25e6, c.Probing.RateBps, sc.SweepPoints)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		x, probe, fifo float64
		cross          []float64
	}
	return Run(Scenario[pt]{
		Seed:  base.Seed,
		Units: len(rates),
		RunOne: func(_ *probe.TrainMeter, i int, _ sim.Stream) (pt, error) {
			l := cloneLink(&base)
			l.Seed = base.Seed + int64(i)*101
			ss, err := probe.MeasureSteadyState(l, rates[i], dur)
			if err != nil {
				return pt{}, err
			}
			return pt{
				x:     rates[i] / 1e6,
				probe: ss.ProbeRate / 1e6,
				fifo:  ss.FIFORate / 1e6,
				cross: ss.CrossRates,
			}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			series := []Series{{Name: "probe ro (Mb/s)"}}
			if len(base.FIFOCross) > 0 {
				series = append(series, Series{Name: "FIFO cross (Mb/s)"})
			}
			for ci := range base.Contenders {
				series = append(series, Series{Name: c.StationNames[ci+1] + " (Mb/s)"})
			}
			for _, pt := range pts {
				k := 0
				series[k].X = append(series[k].X, pt.x)
				series[k].Y = append(series[k].Y, pt.probe)
				if len(base.FIFOCross) > 0 {
					k++
					series[k].X = append(series[k].X, pt.x)
					series[k].Y = append(series[k].Y, pt.fifo)
				}
				for ci := range base.Contenders {
					series[k+1+ci].X = append(series[k+1+ci].X, pt.x)
					series[k+1+ci].Y = append(series[k+1+ci].Y, pt.cross[ci]/1e6)
				}
			}
			return &Figure{
				ID:     c.Name,
				Title:  "Steady-state rate response — " + c.Name,
				XLabel: "ri (Mb/s)",
				YLabel: "throughput (Mb/s)",
				Series: series,
			}, nil
		},
	}, sc)
}

// ScenarioFigure renders a compiled scenario with the driver its
// probing plan selects: the access-delay transient for train plans,
// the steady-state rate response for steady plans.
func ScenarioFigure(c *scenario.Compiled, sc Scale) (*Figure, error) {
	switch c.Probing.Plan {
	case scenario.PlanTrain:
		return ScenarioTransient(c, sc)
	case scenario.PlanSteady:
		return ScenarioRRC(c, sc)
	}
	return nil, fmt.Errorf("experiments: scenario %q has unknown probing plan %q", c.Name, c.Probing.Plan)
}

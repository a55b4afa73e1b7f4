package experiments

import (
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
	"csmabw/internal/traffic"
)

// AblationParams configures the immediate-access ablation: the same
// probing scenario run with standard DCF and with immediate access
// disabled, showing that the first-packet acceleration
// is the mechanism behind the access-delay transient.
type AblationParams struct {
	ProbeRateBps float64
	CrossRateBps float64
	TrainLen     int
	PacketSize   int
	Seed         int64
}

// DefaultAblation mirrors the Fig. 6 scenario.
func DefaultAblation() AblationParams {
	return AblationParams{
		ProbeRateBps: 5e6,
		CrossRateBps: 4e6,
		TrainLen:     60,
		PacketSize:   1500,
		Seed:         66,
	}
}

// AblationImmediateAccess returns the per-index mean access delay with
// and without the 802.11 immediate-access rule, over sc.Reps
// replications each. The unit of work is one (variant, replication)
// pair: units 0..Reps-1 are standard DCF, units Reps..2*Reps-1 the
// ablated variant.
func AblationImmediateAccess(p AblationParams, sc Scale) (*Figure, error) {
	runOne := func(disable bool, rep int) ([]float64, error) {
		r := sim.NewRand(p.Seed + int64(rep))
		start := 500*sim.Millisecond + r.ExpTime(50*sim.Millisecond)
		gI := sim.FromSeconds(float64(p.PacketSize*8) / p.ProbeRateBps)
		end := start + sim.Time(p.TrainLen)*(gI+20*sim.Millisecond)
		cfg := mac.Config{
			Phy:                    phy.B11(),
			Seed:                   p.Seed ^ int64(rep)*7919,
			DisableImmediateAccess: disable,
			Horizon:                end,
			Stations: []mac.StationConfig{
				{Source: traffic.NewTrain(p.TrainLen, gI, p.PacketSize, start)},
				{Source: traffic.NewPoisson(r.Split(1), p.CrossRateBps, p.PacketSize, 0, end)},
			},
		}
		res, err := mac.Run(cfg)
		if err != nil {
			return nil, err
		}
		var row []float64
		for _, f := range res.ProbeFrames(0) {
			row = append(row, f.AccessDelay().Seconds())
		}
		return row, nil
	}
	return Run(Scenario[[]float64]{
		Seed:  p.Seed,
		Units: 2 * sc.Reps,
		RunOne: func(_ *probe.TrainMeter, u int, _ sim.Stream) ([]float64, error) {
			return runOne(u >= sc.Reps, u%sc.Reps)
		},
		Reduce: func(rowSets [][]float64) (*Figure, error) {
			series := func(rows [][]float64, name string) Series {
				means := stats.RunningMeans(rows)
				s := Series{Name: name}
				for i, m := range means {
					s.X = append(s.X, float64(i+1))
					s.Y = append(s.Y, m*1e3)
				}
				return s
			}
			std := series(rowSets[:sc.Reps], "standard DCF (immediate access)")
			abl := series(rowSets[sc.Reps:], "no immediate access (ablation)")
			return &Figure{
				ID:     "ablation-ia",
				Title:  "Mean access delay per packet: immediate access vs ablated",
				XLabel: "packet #",
				YLabel: "access delay (ms)",
				Series: []Series{std, abl},
			}, nil
		},
	}, sc)
}

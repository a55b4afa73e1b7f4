// Command dcfsim runs an arbitrary single-BSS IEEE 802.11 DCF scenario
// on the discrete-event MAC engine and prints per-station statistics:
// carried throughput, delays, collision and drop counts. It is the
// general-purpose front end to the simulator the figure experiments are
// built on.
//
// Stations are described with -station flags (repeatable):
//
//	dcfsim -duration 5 \
//	       -station poisson:4:1500 \
//	       -station cbr:2:576 \
//	       -station poisson:0.5:40
//
// Each spec is kind:rateMbps:sizeBytes[:powerDB] with kind "poisson"
// or "cbr"; the optional fourth field is the station's received power
// at the common receiver in relative dB, consumed by the -capture rule
// (default 0 — equal powers, so no frame can capture).
//
// Alternatively the whole cell — stations, traffic, channel, EDCA,
// probing plan — comes from a declarative spec file:
//
//	dcfsim -scenario scenarios/dense-stadium.json -duration 5 -reps 8
//
// Station 0 then runs the spec's probing plan merged with the FIFO
// cross flows and stations 1.. the spec's contenders. Explicit
// -seed/-rts flags override the spec; the structured flags (-station,
// -phy, -fer, -ber, -topology, -capture, -ac, -rates) describe the
// same things the spec does and are rejected alongside it.
//
// Flags -phy (b11|b11short|g54|a54), -rts (RTS/CTS threshold in bytes)
// and -seed complete the scenario. The channel is configurable:
// -fer/-ber apply a frame/bit error model, -topology mesh|hidden|chain
// selects the station hearing graph (hidden terminals collide at the
// receiver without ever sensing each other), and -capture sets the
// receiver capture threshold in dB. The stations are configurable too:
// -ac assigns 802.11e EDCA access categories (comma-separated per
// station, or one value for all — "-ac vo,bk" pits a voice queue
// against background bulk) and -rates assigns per-station data rates
// in Mb/s ("-rates 11,1" reproduces the 802.11 rate anomaly: the slow
// sender drags everyone toward its own throughput). With -reps N the
// scenario is replicated N times on -workers goroutines — each
// replication drawing its traffic from an independent RNG substream —
// and the table reports per-station means across replications.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"csmabw/internal/clikit"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
	"csmabw/internal/trace"
	"csmabw/internal/traffic"
)

// stationSpecs collects repeated -station flags.
type stationSpecs []string

// String renders the collected specs for flag's usage output.
func (s *stationSpecs) String() string { return strings.Join(*s, " ") }

// Set appends one -station spec (flag.Value).
func (s *stationSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func parseStation(spec string, r *sim.Rand, end sim.Time) (traffic.Source, float64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return nil, 0, fmt.Errorf("station spec %q: want kind:rateMbps:size[:powerDB]", spec)
	}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || clikit.CheckFinite("rate", rate) != nil || rate <= 0 {
		return nil, 0, fmt.Errorf("station spec %q: bad rate", spec)
	}
	size, err := strconv.Atoi(parts[2])
	if err != nil || size <= 0 {
		return nil, 0, fmt.Errorf("station spec %q: bad size", spec)
	}
	var power float64
	if len(parts) == 4 {
		power, err = strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("station spec %q: bad power", spec)
		}
	}
	// The traffic generators refuse packets under 1 ns apart.
	if sim.FromSeconds(float64(size*8)/(rate*1e6)) < 1 {
		return nil, 0, fmt.Errorf("station spec %q: bad rate: %d-byte packets under 1 ns apart", spec, size)
	}
	// Lazy sources: the engine pulls arrivals as the clock advances, so
	// long -duration runs never materialize their schedules up front.
	switch parts[0] {
	case "poisson":
		return traffic.NewPoisson(r, rate*1e6, size, 0, end), power, nil
	case "cbr":
		return traffic.NewCBR(rate*1e6, size, 0, end), power, nil
	}
	return nil, 0, fmt.Errorf("station spec %q: unknown kind %q", spec, parts[0])
}

// checkDuration screens -duration: a NaN, infinite or non-positive
// length has no simulated interval to report on.
func checkDuration(seconds float64) error {
	if err := clikit.CheckFinite("-duration", seconds); err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-duration must be positive, got %g", seconds)
	}
	return nil
}

func phyFor(name string) (phy.Params, error) {
	switch name {
	case "b11":
		return phy.B11(), nil
	case "b11short":
		return phy.B11Short(), nil
	case "g54":
		return phy.G54(), nil
	case "a54":
		return phy.A54(), nil
	}
	return phy.Params{}, fmt.Errorf("unknown PHY %q (b11|b11short|g54|a54)", name)
}

// stationResult is one station's statistics from one replication.
type stationResult struct {
	thrMbps    float64
	delivered  float64
	attempts   float64
	collisions float64
	phyErrors  float64
	dropped    float64
	meanAccMs  float64
	p95AccMs   float64
}

func main() {
	var specs stationSpecs
	flag.Var(&specs, "station", "station spec kind:rateMbps:size (repeatable)")
	phyName := flag.String("phy", "b11", "PHY profile: b11, b11short, g54 or a54")
	duration := flag.Float64("duration", 5, "simulated seconds")
	seed := flag.Int64("seed", 1, "random seed")
	rts := flag.Int("rts", 0, "RTS/CTS threshold in bytes (0 = off)")
	reps := flag.Int("reps", 1, "independent replications of the scenario")
	workers := flag.Int("workers", 0, "worker goroutines for replications (0 = all cores)")
	tracePath := flag.String("trace", "", "write a binary channel-event trace to this file (replication 0)")
	chFlags := clikit.RegisterChannel(flag.CommandLine)
	edcaFlags := clikit.RegisterEDCA(flag.CommandLine)
	scenFlag := clikit.RegisterScenario(flag.CommandLine)
	flag.Parse()

	scen, err := scenFlag.Compiled()
	if err != nil {
		clikit.Exitf(2, "%v", err)
	}
	if scen != nil {
		// The spec describes the whole cell; the structured flags would be
		// a second source of the same configuration.
		if len(specs) > 0 {
			clikit.Exitf(2, "-station conflicts with -scenario: the spec describes the stations")
		}
		for _, name := range []string{"phy", "fer", "ber", "topology", "capture", "ac", "rates"} {
			if clikit.Passed(flag.CommandLine, name) {
				clikit.Exitf(2, "-%s conflicts with -scenario: the spec describes the cell", name)
			}
		}
		if clikit.Passed(flag.CommandLine, "seed") {
			scen.Link.Seed = *seed
		} else {
			*seed = scen.Link.Seed
		}
		if clikit.Passed(flag.CommandLine, "rts") {
			scen.Link.RTSThreshold = *rts
		} else {
			*rts = scen.Link.RTSThreshold
		}
	} else if len(specs) == 0 {
		clikit.Exitf(2, "need at least one -station spec (or -scenario)")
	}
	if *reps < 1 {
		clikit.Exitf(2, "-reps must be at least 1")
	}
	if err := checkDuration(*duration); err != nil {
		clikit.Exitf(2, "%v", err)
	}
	var p phy.Params
	if scen != nil {
		p = scen.Link.WithDefaults().Phy
	} else if p, err = phyFor(*phyName); err != nil {
		clikit.Exitf(2, "%v", err)
	}
	channel, err := chFlags.Channel(len(specs))
	if err != nil {
		clikit.Exitf(2, "%v", err)
	}
	end := sim.FromSeconds(*duration)
	// A malformed -station spec is a usage error: screen every spec
	// before any replication runs (building a source draws nothing).
	for _, spec := range specs {
		if _, _, err := parseStation(spec, nil, end); err != nil {
			clikit.Exitf(2, "%v", err)
		}
	}

	var tw *trace.Writer
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		clikit.Check(err)
		tw = trace.NewWriter(traceFile)
	}

	// EDCA/rate heterogeneity resolves once, onto a template the
	// replications copy station configs from.
	edca := make([]mac.StationConfig, len(specs))
	if err := edcaFlags.Apply(edca); err != nil {
		clikit.Exitf(2, "%v", err)
	}

	// Each replication derives its traffic and engine seeds from an
	// independent substream, so results are identical at any -workers.
	root := sim.NewStream(*seed)
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = fmt.Sprintf("sta%d(%s)", i, spec)
		if edca[i].AC != phy.ACLegacy {
			names[i] += "/" + edca[i].AC.String()
		}
		if edca[i].DataRate > 0 && edca[i].DataRate != p.DataRate {
			names[i] += fmt.Sprintf("@%gM", edca[i].DataRate/1e6)
		}
	}
	if scen != nil {
		names = scen.StationNames
	}
	runOne := func(rep int) ([]stationResult, error) {
		stream := root.Child(uint64(rep))
		var cfg mac.Config
		if scen != nil {
			var err error
			if cfg, err = scen.MACConfig(stream, end); err != nil {
				return nil, err
			}
		} else {
			cfg = mac.Config{Phy: p, Seed: stream.Child(0).Seed(), Horizon: end, RTSThreshold: *rts, Channel: channel}
			for i, spec := range specs {
				src, power, err := parseStation(spec, stream.Child(uint64(i)+1).Rand(), end)
				if err != nil {
					return nil, err
				}
				cfg.Stations = append(cfg.Stations, mac.StationConfig{
					Name: names[i], Source: src, PowerDB: power,
					AC: edca[i].AC, EDCA: edca[i].EDCA, DataRate: edca[i].DataRate,
				})
			}
		}
		if rep == 0 && tw != nil {
			hook, _ := tw.Hook()
			cfg.OnEvent = hook
		}
		res, err := mac.Run(cfg)
		if err != nil {
			return nil, err
		}
		out := make([]stationResult, len(names))
		for i := range cfg.Stations {
			st := res.Stats[i]
			var acc []float64
			for _, f := range res.Frames[i] {
				acc = append(acc, f.AccessDelay().Seconds()*1e3)
			}
			mean, p95 := 0.0, 0.0
			if len(acc) > 0 {
				mean = stats.Mean(acc)
				p95 = stats.Quantile(acc, 0.95)
			}
			out[i] = stationResult{
				thrMbps:    res.Throughput(i, 0, end) / 1e6,
				delivered:  float64(st.Delivered),
				attempts:   float64(st.Attempts),
				collisions: float64(st.Collisions),
				phyErrors:  float64(st.ChannelErrors),
				dropped:    float64(st.Dropped),
				meanAccMs:  mean,
				p95AccMs:   p95,
			}
		}
		return out, nil
	}

	byRep, err := runner.Map(*reps, *workers, runOne)
	clikit.Check(err)
	if tw != nil {
		clikit.Check(tw.Flush())
		clikit.Check(traceFile.Close())
		fmt.Printf("wrote %d events to %s\n", tw.Events(), *tracePath)
	}

	if scen != nil {
		fmt.Printf("scenario %q: %s\n", scen.Name, scen.Description)
		for _, note := range scen.Notes {
			fmt.Printf("  - %s\n", note)
		}
		for _, ev := range scen.Link.Schedule {
			fmt.Printf("  - event at %v\n", ev.At)
		}
	}
	fmt.Printf("PHY %s, %d stations, %.1fs simulated, %d replication(s) (RTS threshold %d)\n\n",
		p.Name, len(names), *duration, *reps, *rts)
	fmt.Printf("%-26s %10s %9s %9s %7s %7s %7s %10s %10s\n",
		"station", "thru(Mb/s)", "delivered", "attempts", "coll", "phyerr", "drops",
		"mean acc(ms)", "p95 acc(ms)")
	var agg float64
	n := float64(len(byRep))
	for i := range names {
		var m stationResult
		for _, rep := range byRep {
			m.thrMbps += rep[i].thrMbps
			m.delivered += rep[i].delivered
			m.attempts += rep[i].attempts
			m.collisions += rep[i].collisions
			m.phyErrors += rep[i].phyErrors
			m.dropped += rep[i].dropped
			m.meanAccMs += rep[i].meanAccMs
			m.p95AccMs += rep[i].p95AccMs
		}
		agg += m.thrMbps / n
		fmt.Printf("%-26s %10.3f %9.1f %9.1f %7.1f %7.1f %7.1f %10.3f %10.3f\n",
			names[i], m.thrMbps/n, m.delivered/n, m.attempts/n,
			m.collisions/n, m.phyErrors/n, m.dropped/n, m.meanAccMs/n, m.p95AccMs/n)
	}
	fmt.Printf("\naggregate: %.3f Mb/s (single-station envelope %.3f Mb/s)\n",
		agg, p.MaxThroughput(1500)/1e6)
}

package scenario

import (
	"fmt"
	"strings"
	"time"

	"csmabw/internal/estimate"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Plan names the compiled probing plan kind.
type Plan string

// The two probing plans a spec can select: a finite packet train (the
// transient / dispersion measurements) or a long constant-rate
// steady-state run (the rate-response measurements).
const (
	// PlanTrain is a finite probing train.
	PlanTrain Plan = "train"
	// PlanSteady is a long constant-rate steady-state run.
	PlanSteady Plan = "steady"
)

// Probing is the compiled measurement plan.
type Probing struct {
	// Plan selects train or steady probing.
	Plan Plan
	// TrainLen is the packets per train (train plans).
	TrainLen int
	// RateBps is the probing rate in bit/s: the train's nominal input
	// rate (0 = back-to-back), or the steady plan's offered rate.
	RateBps float64
	// Reps is the spec's replication count (0 = scale preset).
	Reps int
	// DurationSeconds is the spec's per-point duration (0 = preset).
	DurationSeconds float64
}

// Estimator is the compiled closed-loop estimator campaign settings.
type Estimator struct {
	// Kind is topp, slops, adaptive or all.
	Kind string
	// TargetRel is the adaptive CI95 target (0 = tool default).
	TargetRel float64
	// ResolutionBps is the SLoPS resolution in bit/s (0 = default).
	ResolutionBps float64
	// Budget caps the campaign (zero value = uncapped).
	Budget estimate.Budget
}

// Compiled is a scenario compiled into engine configuration: the
// measured cell as a validated probe.Link, the probing plan, the
// optional estimator campaign, and presentation metadata. It is
// immutable by convention — tools that override fields copy it first.
type Compiled struct {
	// Name is the scenario (and derived figure) identifier.
	Name string
	// Description is the spec's documentation string.
	Description string
	// Link is the measured cell. Link.Workers is left 0; the caller's
	// scale decides the worker pool.
	Link probe.Link
	// StationNames labels the cell's stations for tool output: index 0
	// is the probing station, 1.. the contenders.
	StationNames []string
	// Probing is the measurement plan.
	Probing Probing
	// Estimator is the optional estimator campaign (nil when the spec
	// has none).
	Estimator *Estimator
	// Notes are the spec's free-text annotations (including any legacy
	// "phases" strings).
	Notes []string
}

// errAt is a positional compile error rooted at a spec field path.
func errAt(path, format string, a ...any) error {
	return fmt.Errorf("scenario: %s: %s", path, fmt.Sprintf(format, a...))
}

// phyFor resolves the spec's PHY profile name. The empty name
// compiles to the zero phy.Params — the engine default (802.11b long
// preamble), applied later by Link.WithDefaults — so specs that omit
// the field produce Links identical to hand-wired zero-Phy ones.
func phyFor(name string) (phy.Params, error) {
	switch name {
	case "":
		return phy.Params{}, nil
	case "b11":
		return phy.B11(), nil
	case "b11short":
		return phy.B11Short(), nil
	case "g54":
		return phy.G54(), nil
	case "a54":
		return phy.A54(), nil
	}
	return phy.Params{}, errAt("phy", "unknown profile %q (b11|b11short|g54|a54)", name)
}

// gapUnderNanosecond reports whether size-byte packets at rateBps would
// arrive less than 1 ns apart: the traffic generators refuse such a
// rate, since every arrival would land on one instant.
func gapUnderNanosecond(rateBps float64, size int) bool {
	return sim.FromSeconds(float64(size*8)/rateBps) < 1
}

// compileFlow turns one FlowSpec into a probe.Flow.
func compileFlow(f FlowSpec, path string) (probe.Flow, error) {
	out := probe.Flow{}
	if f.RateMbps <= 0 {
		return out, errAt(path+".rate_mbps", "flow needs a positive rate, got %g", f.RateMbps)
	}
	out.RateBps = f.RateMbps * 1e6
	if f.SizeBytes < 0 {
		return out, errAt(path+".size_bytes", "negative packet size %d", f.SizeBytes)
	}
	out.Size = f.SizeBytes
	if out.Size == 0 {
		out.Size = 1500
	}
	switch f.Kind {
	case "", "poisson":
		if f.OnSeconds != 0 || f.OffSeconds != 0 {
			return out, errAt(path+".on_seconds", "burst periods need kind \"onoff\"")
		}
	case "onoff":
		if f.OnSeconds <= 0 || f.OffSeconds <= 0 {
			return out, errAt(path+".on_seconds", "on/off process needs positive on_seconds and off_seconds, got %g/%g", f.OnSeconds, f.OffSeconds)
		}
		out.OnMean = sim.FromSeconds(f.OnSeconds)
		out.OffMean = sim.FromSeconds(f.OffSeconds)
	default:
		return out, errAt(path+".kind", "unknown traffic kind %q (poisson|onoff)", f.Kind)
	}
	// An on/off flow sends its bursts at the peak rate that preserves
	// the mean, as probe.Flow.Source does.
	peak := out.RateBps
	if out.OnMean > 0 {
		peak *= float64(out.OnMean+out.OffMean) / float64(out.OnMean)
	}
	if gapUnderNanosecond(peak, out.Size) {
		return out, errAt(path+".rate_mbps", "rate %g Mb/s spaces %d-byte packets under 1 ns apart", f.RateMbps, out.Size)
	}
	return out, nil
}

// compileTopology builds the hearing graph for n stations.
func compileTopology(t *TopologySpec, n int) (*mac.Topology, error) {
	if t == nil {
		return nil, nil
	}
	switch t.Kind {
	case "", "mesh":
		if len(t.Links) > 0 {
			return nil, errAt("channel.topology.links", "links need kind \"links\"")
		}
		return nil, nil
	case "hidden":
		if len(t.Links) > 0 {
			return nil, errAt("channel.topology.links", "links need kind \"links\"")
		}
		return mac.NewTopology(n), nil
	case "chain":
		if len(t.Links) > 0 {
			return nil, errAt("channel.topology.links", "links need kind \"links\"")
		}
		return mac.Chain(n), nil
	case "links":
		topo := mac.NewTopology(n)
		for i, ab := range t.Links {
			path := fmt.Sprintf("channel.topology.links[%d]", i)
			a, b := ab[0], ab[1]
			if a < 0 || a >= n || b < 0 || b >= n {
				return nil, errAt(path, "station index out of range [0, %d): [%d, %d]", n, a, b)
			}
			if a == b {
				return nil, errAt(path, "station %d cannot hear itself explicitly", a)
			}
			topo.Connect(a, b)
		}
		return topo, nil
	}
	return nil, errAt("channel.topology.kind", "unknown topology %q (mesh|hidden|chain|links)", t.Kind)
}

// compileProbing validates the measurement plan. probeSize (bytes,
// defaults already applied) converts a gap_ms train spacing into the
// equivalent probing rate.
func compileProbing(p ProbingSpec, probeSize int) (Probing, error) {
	out := Probing{}
	switch p.Plan {
	case "train":
		out.Plan = PlanTrain
	case "steady":
		out.Plan = PlanSteady
	case "":
		return out, errAt("probing.plan", "plan is required (train|steady)")
	default:
		return out, errAt("probing.plan", "unknown plan %q (train|steady)", p.Plan)
	}
	if p.RateMbps < 0 {
		return out, errAt("probing.rate_mbps", "negative rate %g", p.RateMbps)
	}
	if p.GapMs < 0 {
		return out, errAt("probing.gap_ms", "negative gap %g", p.GapMs)
	}
	if p.Reps < 0 {
		return out, errAt("probing.reps", "negative replication count %d", p.Reps)
	}
	if p.DurationSeconds < 0 {
		return out, errAt("probing.duration_seconds", "negative duration %g", p.DurationSeconds)
	}
	switch out.Plan {
	case PlanTrain:
		if p.DurationSeconds > 0 {
			return out, errAt("probing.duration_seconds", "a train plan has no duration; use packets/rate_mbps/gap_ms")
		}
		if p.Packets < 2 {
			return out, errAt("probing.packets", "a train needs at least 2 packets, got %d", p.Packets)
		}
		if p.RateMbps > 0 && p.GapMs > 0 {
			return out, errAt("probing.gap_ms", "rate_mbps and gap_ms both set; they define the same spacing")
		}
		out.TrainLen = p.Packets
		out.RateBps = p.RateMbps * 1e6
		if p.GapMs > 0 {
			// A gap is the reciprocal expression of the rate over the
			// probe payload: rate = size_bits / gap.
			out.RateBps = float64(probeSize*8) / (p.GapMs / 1e3)
		}
		out.Reps = p.Reps
	case PlanSteady:
		if p.Packets != 0 || p.GapMs != 0 || p.Reps != 0 {
			return out, errAt("probing.packets", "packets/gap_ms/reps belong to train plans; a steady plan takes rate_mbps and duration_seconds")
		}
		if p.RateMbps <= 0 {
			return out, errAt("probing.rate_mbps", "a steady plan needs a positive rate, got %g", p.RateMbps)
		}
		if gapUnderNanosecond(p.RateMbps*1e6, probeSize) {
			return out, errAt("probing.rate_mbps", "rate %g Mb/s spaces %d-byte probes under 1 ns apart", p.RateMbps, probeSize)
		}
		out.RateBps = p.RateMbps * 1e6
		out.DurationSeconds = p.DurationSeconds
	}
	return out, nil
}

// compileEvents lowers the spec's structured events into the engine's
// schedule, with positional semantic validation: parseable and
// monotone instants, station names that resolve against the compiled
// cell (index 0 = the probing station), error rates in [0, 1),
// non-negative rates, link edges between distinct in-range stations,
// and no event that changes nothing. names is the compiled
// StationNames list.
func (s *Spec) compileEvents(names []string) ([]mac.ScheduledEvent, error) {
	if len(s.Events) == 0 {
		return nil, nil
	}
	n := len(names)
	out := make([]mac.ScheduledEvent, 0, len(s.Events))
	prev := sim.Time(0)
	for i, ev := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		if ev.At == "" {
			return nil, errAt(path+".at", `event needs an instant ("2s", "500ms")`)
		}
		d, err := time.ParseDuration(ev.At)
		if err != nil {
			return nil, errAt(path+".at", "bad duration %q", ev.At)
		}
		at := sim.FromSeconds(d.Seconds())
		if at < 0 {
			return nil, errAt(path+".at", "negative instant %q", ev.At)
		}
		if at < prev {
			return nil, errAt(path+".at", "instant %q before the previous event; events must be time-ordered", ev.At)
		}
		prev = at
		me := mac.ScheduledEvent{At: at, Target: -1}
		if ev.Station != "" && ev.Station != "*" {
			found := false
			for j, nm := range names {
				if nm == ev.Station {
					me.Target, found = j, true
					break
				}
			}
			if !found {
				return nil, errAt(path+".station", "unknown station %q (known: %s)", ev.Station, strings.Join(names, ", "))
			}
		}
		if f := ev.FER; f != nil {
			if *f < 0 || *f >= 1 {
				return nil, errAt(path+".fer", "frame-error rate %g outside [0, 1)", *f)
			}
			me.SetFER = f
		}
		if b := ev.BER; b != nil {
			if *b < 0 || *b >= 1 {
				return nil, errAt(path+".ber", "bit-error rate %g outside [0, 1)", *b)
			}
			me.SetBER = b
		}
		if r := ev.DataRateMbps; r != nil {
			if *r < 0 {
				return nil, errAt(path+".data_rate_mbps", "negative rate %g", *r)
			}
			bps := *r * 1e6
			me.SetDataRate = &bps
		}
		me.SetPowerDB = ev.PowerDB // walker guarantees finiteness
		if lk := ev.Link; lk != nil {
			a, b := lk[0], lk[1]
			if a < 0 || a >= n || b < 0 || b >= n {
				return nil, errAt(path+".link", "station index out of range [0, %d): [%d, %d]", n, a, b)
			}
			if a == b {
				return nil, errAt(path+".link", "station %d cannot hear itself", a)
			}
			me.SetTopologyEdge = &mac.TopologyEdge{A: a, B: b, Hears: ev.Hears}
		}
		if me.SetFER == nil && me.SetBER == nil && me.SetDataRate == nil &&
			me.SetPowerDB == nil && me.SetTopologyEdge == nil {
			return nil, errAt(path, "event changes nothing; set fer, ber, data_rate_mbps, power_db or link")
		}
		out = append(out, me)
	}
	return out, nil
}

// compileEstimator validates the estimator campaign settings.
func compileEstimator(e *EstimatorSpec) (*Estimator, error) {
	if e == nil {
		return nil, nil
	}
	out := &Estimator{Kind: e.Kind}
	if out.Kind == "" {
		out.Kind = "all"
	}
	switch out.Kind {
	case "all", "topp", "slops", "adaptive":
	default:
		return nil, errAt("estimator.kind", "unknown estimator %q (all|topp|slops|adaptive)", e.Kind)
	}
	if e.TargetRel < 0 || e.TargetRel >= 1 {
		return nil, errAt("estimator.target_rel", "relative CI target %g outside [0, 1)", e.TargetRel)
	}
	out.TargetRel = e.TargetRel
	if e.ResolutionMbps < 0 {
		return nil, errAt("estimator.resolution_mbps", "negative resolution %g", e.ResolutionMbps)
	}
	out.ResolutionBps = e.ResolutionMbps * 1e6
	if e.MaxProbeSeconds < 0 {
		return nil, errAt("estimator.max_probe_seconds", "negative budget %g", e.MaxProbeSeconds)
	}
	if e.MaxPackets < 0 {
		return nil, errAt("estimator.max_packets", "negative budget %d", e.MaxPackets)
	}
	out.Budget = estimate.Budget{MaxProbeSeconds: e.MaxProbeSeconds, MaxPackets: e.MaxPackets}
	return out, nil
}

// Compile turns a parsed spec into engine configuration, validating
// everything statically: value ranges, topology bounds against the
// station count, plan consistency, and conflicts the engine would
// otherwise only reject at run time (a TXOP-enabled access category
// over a topology with hidden stations). The compiled Link additionally
// passes probe.Link.Validate, so a compiled scenario can never smuggle
// an invalid knob into a measurement.
func (s *Spec) Compile() (*Compiled, error) {
	if s.Name == "" {
		return nil, errAt("name", "scenario needs a name")
	}
	c := &Compiled{
		Name:        s.Name,
		Description: s.Description,
		Notes:       s.Notes,
	}
	p, err := phyFor(s.Phy)
	if err != nil {
		return nil, err
	}
	l := probe.Link{
		Phy:       p,
		Seed:      s.Seed,
		ProbeSize: s.Probe.SizeBytes,
	}
	if s.RTSThresholdBytes < 0 {
		return nil, errAt("rts_threshold_bytes", "negative threshold %d", s.RTSThresholdBytes)
	}
	l.RTSThreshold = s.RTSThresholdBytes
	if s.Probe.SizeBytes < 0 {
		return nil, errAt("probe.size_bytes", "negative packet size %d", s.Probe.SizeBytes)
	}
	probeAC, err := phy.ParseAC(s.Probe.AC)
	if err != nil {
		return nil, errAt("probe.ac", "%v", err)
	}
	l.ProbeAC = probeAC
	if s.Probe.DataRateMbps < 0 {
		return nil, errAt("probe.data_rate_mbps", "negative rate %g", s.Probe.DataRateMbps)
	}
	l.ProbeDataRateBps = s.Probe.DataRateMbps * 1e6
	l.ProbePowerDB = s.Probe.PowerDB
	if s.Probe.WarmupSeconds < 0 {
		return nil, errAt("probe.warmup_seconds", "negative warm-up %g", s.Probe.WarmupSeconds)
	}
	l.WarmUp = sim.FromSeconds(s.Probe.WarmupSeconds)

	for i, f := range s.FIFOCross {
		flow, err := compileFlow(f, fmt.Sprintf("fifo_cross[%d]", i))
		if err != nil {
			return nil, err
		}
		l.FIFOCross = append(l.FIFOCross, flow)
	}
	c.StationNames = []string{"probe"}
	for i, st := range s.Stations {
		path := fmt.Sprintf("stations[%d]", i)
		flow, err := compileFlow(st.Traffic, path+".traffic")
		if err != nil {
			return nil, err
		}
		ac, err := phy.ParseAC(st.AC)
		if err != nil {
			return nil, errAt(path+".ac", "%v", err)
		}
		flow.AC = ac
		if st.DataRateMbps < 0 {
			return nil, errAt(path+".data_rate_mbps", "negative rate %g", st.DataRateMbps)
		}
		flow.DataRateBps = st.DataRateMbps * 1e6
		flow.PowerDB = st.PowerDB
		l.Contenders = append(l.Contenders, flow)
		name := st.Name
		if name == "" {
			name = fmt.Sprintf("contender-%d", i)
		}
		c.StationNames = append(c.StationNames, name)
	}

	n := 1 + len(l.Contenders)
	topo, err := compileTopology(s.Channel.Topology, n)
	if err != nil {
		return nil, err
	}
	l.Topology = topo
	l.Loss = phy.ErrorModel{FER: s.Channel.FER, BER: s.Channel.BER}
	if err := l.Loss.Validate(); err != nil {
		return nil, errAt("channel.fer", "%v", err)
	}
	if s.Channel.CaptureDB < 0 {
		return nil, errAt("channel.capture_db", "negative capture threshold %g", s.Channel.CaptureDB)
	}
	l.CaptureDB = s.Channel.CaptureDB

	if l.Schedule, err = s.compileEvents(c.StationNames); err != nil {
		return nil, err
	}
	edgeEvents := false
	for _, ev := range l.Schedule {
		if ev.SetTopologyEdge != nil {
			edgeEvents = true
			break
		}
	}

	// The engine rejects a TXOP-enabled access category combined with a
	// hidden-station topology (or scheduled hearing-graph edits, which
	// can hide stations mid-run) only when the replication actually
	// runs; the whole point of the compiler is to catch that conflict
	// here, positionally, before any measurement starts.
	if (topo != nil && !topo.IsFullMesh()) || edgeEvents {
		why := "over a topology with hidden stations"
		if topo == nil || topo.IsFullMesh() {
			why = "with scheduled link events"
		}
		eff := l.Phy
		if eff.Name == "" {
			eff = phy.B11()
		}
		if eff.EDCA(probeAC).TXOPLimit > 0 {
			return nil, errAt("probe.ac", "access category %v has a TXOP limit, unsupported %s", probeAC, why)
		}
		for i, f := range l.Contenders {
			if eff.EDCA(f.AC).TXOPLimit > 0 {
				return nil, errAt(fmt.Sprintf("stations[%d].ac", i),
					"access category %v has a TXOP limit, unsupported %s", f.AC, why)
			}
		}
	}

	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	c.Link = l

	size := l.ProbeSize
	if size == 0 {
		size = 1500
	}
	if c.Probing, err = compileProbing(s.Probing, size); err != nil {
		return nil, err
	}
	if c.Estimator, err = compileEstimator(s.Estimator); err != nil {
		return nil, err
	}
	return c, nil
}

// MACConfig assembles a general-purpose engine configuration carrying
// the compiled cell over [0, horizon): station 0 is the probing
// station (its probing plan merged with the FIFO cross flows on one
// transmission queue), stations 1.. the contenders, named after the
// spec. A train plan injects one train starting at the warm-up mark; a
// steady plan offers constant-rate probing for the whole horizon past
// warm-up. All traffic randomness derives from stream, so replications
// handing in root.Child(rep) are independent and order-free. This is
// the cmd/dcfsim path; the cell itself is assembled by
// probe.Link.EngineConfig, exactly as for the measurement drivers.
func (c *Compiled) MACConfig(stream sim.Stream, horizon sim.Time) (mac.Config, error) {
	if horizon <= 0 {
		return mac.Config{}, fmt.Errorf("scenario: non-positive horizon %v", horizon)
	}
	l := c.Link.WithDefaults()
	if err := l.Validate(); err != nil {
		return mac.Config{}, err
	}
	var probeSrc traffic.Source
	switch c.Probing.Plan {
	case PlanTrain:
		var gI sim.Time
		if c.Probing.RateBps > 0 {
			gI = sim.FromSeconds(float64(l.ProbeSize*8) / c.Probing.RateBps)
		}
		probeSrc = traffic.NewTrain(c.Probing.TrainLen, gI, l.ProbeSize, l.WarmUp)
	case PlanSteady:
		probeSrc = traffic.Marked(traffic.NewCBR(c.Probing.RateBps, l.ProbeSize, l.WarmUp, horizon))
	default:
		return mac.Config{}, fmt.Errorf("scenario: unknown probing plan %q", c.Probing.Plan)
	}
	cfg := l.EngineConfig(probeSrc, stream.Rand(), stream.Child(0).Seed(), horizon)
	for i := range cfg.Stations {
		cfg.Stations[i].Name = c.StationNames[i]
	}
	return cfg, nil
}

// Package probe implements active dispersion-based bandwidth
// measurement over the simulated CSMA/CA link: periodic probing trains
// (Section 5.1.2), output-gap dispersion measurements (Eq. 16),
// packet-pair probing (Section 7.3), and long-train steady-state rate
// response measurements (the ">10000 packets" curves of Figs. 1 and 4).
//
// A Link describes the paper's validation scenario (Fig. 2/3): one
// measured station whose FIFO transmission queue carries the probing
// flow and optionally FIFO cross-traffic, contending against any number
// of cross-traffic stations. Measurements replicate the experiment many
// times with independent seeds and Poisson-spaced train starts, exactly
// as the paper repeats experiments 80+ times on the testbed and
// 25000-70000 times in simulation.
//
// Beyond the paper's perfect-channel validation setup, a Link carries
// the imperfect-channel knobs (Loss, Topology, CaptureDB and
// RTSThreshold) and the heterogeneity knobs (ProbeAC and
// ProbeDataRateBps on the probing station, Flow.AC and
// Flow.DataRateBps on each contender), so measurements run unchanged
// over lossy links, hidden-terminal topologies, 802.11e EDCA cells and
// mixed-rate cells; the zero values reproduce the paper's single
// perfect collision domain with homogeneous plain-DCF stations
// exactly.
package probe

import (
	"errors"
	"fmt"
	"math"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Flow is a cross-traffic flow: rate in bit/s and fixed packet size in
// bytes. By default arrivals are Poisson (the paper's cross-traffic
// model); setting OnMean/OffMean switches to a bursty on/off process
// with the same average rate, the knob for the Section 6.3 burstiness
// discussion.
type Flow struct {
	RateBps float64
	Size    int
	// OnMean/OffMean, when both positive, select an on/off process:
	// exponential ON bursts at peak rate RateBps*(OnMean+OffMean)/OnMean
	// separated by exponential OFF periods, preserving RateBps on
	// average.
	OnMean, OffMean sim.Time
	// PowerDB is the sending station's received power at the common
	// receiver in relative dB, consumed by the capture rule (Link
	// CaptureDB). Meaningful for Contenders only; flows sharing the
	// probe station's FIFO transmit at the probe station's power.
	PowerDB float64
	// AC is the sending station's 802.11e access category; the zero
	// value is plain DCF. Meaningful for Contenders only: flows sharing
	// the probe station's FIFO queue contend under Link.ProbeAC.
	AC phy.AccessCategory
	// DataRateBps is the sending station's data-frame modulation rate
	// in bit/s for heterogeneous-rate cells (the 802.11 rate anomaly);
	// 0 means the PHY's DataRate. Contenders only, like AC.
	DataRateBps float64
}

// Source realises the flow over [0, end) as a lazy pull-based
// generator: arrivals are drawn only as the simulation consumes them,
// so a replication that stops early never generates the tail.
func (f Flow) Source(r *sim.Rand, end sim.Time) traffic.Source {
	if f.OnMean > 0 && f.OffMean > 0 {
		duty := float64(f.OnMean) / float64(f.OnMean+f.OffMean)
		return traffic.NewOnOff(r, f.RateBps/duty, f.Size, f.OnMean, f.OffMean, 0, end)
	}
	return traffic.NewPoisson(r, f.RateBps, f.Size, 0, end)
}

// Link is the measured WLAN scenario.
type Link struct {
	// Phy is the PHY profile (defaults to phy.B11 when zero Name).
	Phy phy.Params
	// ProbeSize is the probing packet payload in bytes (default 1500).
	ProbeSize int
	// FIFOCross are Poisson flows sharing the probing station's FIFO
	// queue (the "FIFO cross-traffic" of Fig. 3).
	FIFOCross []Flow
	// Contenders are Poisson flows on separate stations contending for
	// channel access (the "contending cross-traffic").
	Contenders []Flow
	// WarmUp is how long cross-traffic runs before the probing flow
	// starts, letting the contending queues reach their stationary
	// regime (default 500ms). The paper's transient appears because the
	// *probing flow* starts, not because the cross-traffic is cold.
	WarmUp sim.Time
	// Loss is the frame-error model applied on every station's uplink
	// to the common receiver; the zero value is the perfect channel.
	Loss phy.ErrorModel
	// Topology is the hearing graph over the probing station (index 0)
	// and the contenders (indices 1..len(Contenders)); nil is a full
	// mesh, i.e. the single collision domain the paper validates in.
	Topology *mac.Topology
	// CaptureDB is the receiver capture threshold in dB; 0 disables
	// capture. Station powers come from ProbePowerDB and each
	// contender Flow's PowerDB; all-equal powers (the default) mean no
	// frame can ever capture.
	CaptureDB float64
	// Schedule is the link's time-varying channel: mid-run parameter
	// changes (error rates, modulation rates, powers, hearing-graph
	// edges) the engine applies at their instants, in every
	// replication — station 0 is the probing station, 1.. the
	// contenders. Instants are absolute from each replication's t=0,
	// so the WarmUp period is part of the timeline. Empty means the
	// static channel, byte-identical to the pre-extension behaviour.
	Schedule []mac.ScheduledEvent
	// ProbePowerDB is the probing station's received power at the
	// common receiver in relative dB.
	ProbePowerDB float64
	// RTSThreshold enables the RTS/CTS handshake for payloads meeting
	// it; 0 disables RTS/CTS (the paper's configuration).
	RTSThreshold int
	// ProbeAC is the probing station's 802.11e access category; the
	// zero value is plain DCF, the paper's configuration. Probe packets
	// and FIFO cross-traffic share one transmission queue, so they
	// contend under this category together — the knob for asking how
	// the access-delay transient and the dispersion estimate change
	// when the probing flow is prioritized (or deprioritized) against
	// its cross-traffic.
	ProbeAC phy.AccessCategory
	// ProbeDataRateBps is the probing station's data-frame modulation
	// rate in bit/s; 0 means the PHY's DataRate.
	ProbeDataRateBps float64
	// Seed drives all randomness. Replication r uses an independent
	// derived stream.
	Seed int64
	// Workers bounds the goroutines replicating train measurements;
	// 0 or negative means GOMAXPROCS. Because every replication's
	// randomness is derived purely from (Seed, replication index), the
	// aggregated statistics are identical at any worker count.
	Workers int
}

// WithDefaults returns a copy of the link with zero fields replaced by
// the paper-standard defaults (802.11b PHY, 1500-byte probes, 500ms
// warm-up).
func (l Link) WithDefaults() Link {
	if l.Phy.Name == "" {
		l.Phy = phy.B11()
	}
	if l.ProbeSize == 0 {
		l.ProbeSize = 1500
	}
	if l.WarmUp == 0 {
		l.WarmUp = 500 * sim.Millisecond
	}
	return l
}

// validate screens one flow's knobs; kind and index name the flow in
// error messages ("FIFOCross[0]", "Contenders[2]").
func (f Flow) validate(kind string, i int) error {
	at := func(field string, format string, a ...any) error {
		return fmt.Errorf("probe: %s[%d].%s: %s", kind, i, field, fmt.Sprintf(format, a...))
	}
	if math.IsNaN(f.RateBps) || math.IsInf(f.RateBps, 0) || f.RateBps < 0 {
		return at("RateBps", "must be finite and >= 0, got %g", f.RateBps)
	}
	if f.Size < 0 {
		return at("Size", "negative packet size %d", f.Size)
	}
	if f.RateBps > 0 && f.Size == 0 {
		return at("Size", "flow carries %g bit/s in zero-byte packets", f.RateBps)
	}
	if f.OnMean < 0 || f.OffMean < 0 {
		return at("OnMean/OffMean", "negative burst period (on=%v off=%v)", f.OnMean, f.OffMean)
	}
	if (f.OnMean > 0) != (f.OffMean > 0) {
		return at("OnMean/OffMean", "on/off process needs both periods positive (on=%v off=%v)", f.OnMean, f.OffMean)
	}
	if math.IsNaN(f.PowerDB) || math.IsInf(f.PowerDB, 0) {
		return at("PowerDB", "non-finite power %g", f.PowerDB)
	}
	if !f.AC.Valid() {
		return at("AC", "unknown access category %v", f.AC)
	}
	if math.IsNaN(f.DataRateBps) || math.IsInf(f.DataRateBps, 0) || f.DataRateBps < 0 {
		return at("DataRateBps", "must be finite and >= 0, got %g", f.DataRateBps)
	}
	return nil
}

// Validate screens every knob of the link for values the engine cannot
// run — NaN/Inf rates and powers, negative sizes and thresholds,
// malformed on/off processes, and a hearing topology whose station
// count disagrees with 1+len(Contenders). Historically these checks
// lived only at command-line parse time, so programmatic construction
// (and the scenario compiler) could smuggle invalid configs into the
// engine; every measurement entry point now calls Validate first. Zero
// values are always valid: defaults are applied later by WithDefaults.
func (l Link) Validate() error {
	if l.ProbeSize < 0 {
		return fmt.Errorf("probe: ProbeSize: negative packet size %d", l.ProbeSize)
	}
	if l.WarmUp < 0 {
		return fmt.Errorf("probe: WarmUp: negative duration %v", l.WarmUp)
	}
	for i, f := range l.FIFOCross {
		if err := f.validate("FIFOCross", i); err != nil {
			return err
		}
	}
	for i, f := range l.Contenders {
		if err := f.validate("Contenders", i); err != nil {
			return err
		}
	}
	if err := l.Loss.Validate(); err != nil {
		return fmt.Errorf("probe: Loss: %w", err)
	}
	if math.IsNaN(l.CaptureDB) || math.IsInf(l.CaptureDB, 0) || l.CaptureDB < 0 {
		return fmt.Errorf("probe: CaptureDB: must be finite and >= 0, got %g", l.CaptureDB)
	}
	if math.IsNaN(l.ProbePowerDB) || math.IsInf(l.ProbePowerDB, 0) {
		return fmt.Errorf("probe: ProbePowerDB: non-finite power %g", l.ProbePowerDB)
	}
	if l.RTSThreshold < 0 {
		return fmt.Errorf("probe: RTSThreshold: negative threshold %d", l.RTSThreshold)
	}
	if !l.ProbeAC.Valid() {
		return fmt.Errorf("probe: ProbeAC: unknown access category %v", l.ProbeAC)
	}
	if math.IsNaN(l.ProbeDataRateBps) || math.IsInf(l.ProbeDataRateBps, 0) || l.ProbeDataRateBps < 0 {
		return fmt.Errorf("probe: ProbeDataRateBps: must be finite and >= 0, got %g", l.ProbeDataRateBps)
	}
	if l.Topology != nil {
		if err := l.Topology.Validate(1 + len(l.Contenders)); err != nil {
			return fmt.Errorf("probe: Topology: %w", err)
		}
	}
	if err := mac.ValidateSchedule(l.Schedule, 1+len(l.Contenders)); err != nil {
		return fmt.Errorf("probe: Schedule: %w", err)
	}
	return nil
}

// TrainSample is the outcome of one probing-train replication.
type TrainSample struct {
	// Delivered probe frames' departure times, indexed by train index;
	// a packet that was dropped holds -1.
	Departures []sim.Time
	// AccessDelays per train index in seconds (-1 when dropped).
	AccessDelays []float64
	// QueueAtDepart is the first contender's queue length sampled at
	// each probe departure (Fig. 8 bottom); empty without contenders.
	QueueAtDepart []float64
	// GO is the measured output gap (Eq. 16); 0 when fewer than two
	// probe packets were delivered.
	GO sim.Time
	// Injected is the number of probe packets the station actually
	// resolved on the air — delivered to the receiver or dropped by the
	// retry limit — before the run ended. A replication the horizon cut
	// short injects fewer than the nominal train length, and cost
	// ledgers must charge this count, not the nominal one: budgets are
	// not debited for packets never sent.
	Injected int
	// Delivered is the number of probe packets that reached the
	// receiver; Injected minus Delivered is the train's channel-loss
	// count, the evidence loss-aware error inflation reads.
	Delivered int
	// Truncated marks a replication the simulation horizon cut short:
	// at least one probe packet was neither delivered nor dropped by
	// the retry limit when the run ended. A truncated train's missing
	// tail is a measurement artifact, not a channel loss, so MeanGO
	// excludes these replications instead of folding their shortened
	// dispersion into E[gO] (which would bias GO under saturation).
	Truncated bool
}

// TrainStats aggregates a set of replications of the same train.
type TrainStats struct {
	N    int      // packets per train
	GI   sim.Time // input gap
	L    int      // probe payload bytes
	Reps int

	// Samples holds each replication.
	Samples []TrainSample
}

// scenario builds the mac.Config for one replication. The probing train
// starts WarmUp plus an exponential offset after time zero — the
// paper's "Poisson spacing between probing sequences" that guarantees
// the trains sample the cross-traffic process in random phase.
func (l Link) scenario(n int, gI sim.Time, rep int64) mac.Config {
	r := sim.NewRand(l.Seed).Split(uint64(rep) + 0x5eed)
	start := l.WarmUp + r.ExpTime(50*sim.Millisecond)

	// Horizon: enough for the train to drain even under saturation.
	// A probe packet's service rarely exceeds ~20ms even with several
	// saturated contenders; 40ms/packet is a generous envelope.
	drain := sim.Time(n)*gI + sim.Time(n)*40*sim.Millisecond + 200*sim.Millisecond
	return l.EngineConfig(traffic.NewTrain(n, gI, l.ProbeSize, start), r,
		l.Seed^(rep+1)*0x9e3779b9, start+drain)
}

// EngineConfig assembles the engine configuration of one run over the
// link, up to the horizon end: station 0 is the probing station, its
// probe flow merged with the FIFO cross flows onto one FIFO queue
// (Fig. 3), and stations 1.. are the contenders, named "contender-i".
// FIFO flow i draws from r.Split(i+100) and contender i from
// r.Split(i+200); seed is the engine's own seed. The link's channel,
// schedule, RTS threshold and per-station power, access-category and
// data-rate knobs all apply here, so every measurement built on a Link
// — trains, steady state and spec-driven runs — carries the same cell.
// l must already carry its defaults (WithDefaults).
func (l Link) EngineConfig(probeSrc traffic.Source, r *sim.Rand, seed int64, end sim.Time) mac.Config {
	station0 := []traffic.Source{probeSrc}
	for fi, f := range l.FIFOCross {
		station0 = append(station0, f.Source(r.Split(uint64(fi)+100), end))
	}
	cfg := mac.Config{
		Phy:     l.Phy,
		Seed:    seed,
		Horizon: end,
		Channel: mac.Channel{
			Topology:           l.Topology,
			Loss:               l.Loss,
			CaptureThresholdDB: l.CaptureDB,
		},
		RTSThreshold: l.RTSThreshold,
		Schedule:     l.Schedule,
		Stations: []mac.StationConfig{{
			Name:     "probe",
			Source:   traffic.MergeSources(station0...),
			PowerDB:  l.ProbePowerDB,
			AC:       l.ProbeAC,
			DataRate: l.ProbeDataRateBps,
		}},
	}
	for ci, f := range l.Contenders {
		cfg.Stations = append(cfg.Stations, mac.StationConfig{
			Name:     fmt.Sprintf("contender-%d", ci),
			Source:   f.Source(r.Split(uint64(ci)+200), end),
			PowerDB:  f.PowerDB,
			AC:       f.AC,
			DataRate: f.DataRateBps,
		})
	}
	return cfg
}

// TrainMeter is a per-worker measurement context: it owns one
// mac.Engine that is Reset — arenas, station state and scratch reused —
// between the train replications measured through it, so a replication
// allocates almost nothing beyond its own TrainSample. A meter must
// only be used serially (one per worker goroutine; runner.MapBatches
// builds exactly that), and reuse never changes a measured value: a
// Reset engine is byte-identical to a fresh one. The zero value is
// ready to use.
type TrainMeter struct {
	eng *mac.Engine
}

// run executes cfg on the meter's reused engine, constructing it on
// first use. A nil meter falls back to a fresh engine per call.
func (m *TrainMeter) run(cfg mac.Config) (*mac.Result, error) {
	if m == nil {
		return mac.Run(cfg)
	}
	if m.eng == nil {
		e, err := mac.New(cfg)
		if err != nil {
			return nil, err
		}
		m.eng = e
	} else if err := m.eng.Reset(cfg); err != nil {
		// A failed Reset leaves the engine unusable; drop it so a later
		// valid config rebuilds from scratch.
		m.eng = nil
		return nil, err
	}
	return m.eng.Run(), nil
}

// TrainPlan is a train measurement whose per-replication-invariant
// preparation — defaults resolution, train-length validation, input-gap
// derivation — has been done once, up front. Replications then only
// build their (cheap, per-seed) scenario and run it, which is what the
// batched figure drivers execute tens of thousands of times.
type TrainPlan struct {
	link Link
	n    int
	gI   sim.Time
}

// PlanTrain resolves an n-packet train measurement at probing rate
// rateBps over link l into a TrainPlan. The returned plan is immutable
// and safe to share across worker goroutines.
func PlanTrain(l Link, n int, rateBps float64) (*TrainPlan, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	l = l.WithDefaults()
	if n < 1 {
		return nil, fmt.Errorf("probe: train length %d", n)
	}
	var gI sim.Time
	if rateBps > 0 {
		gI = sim.FromSeconds(float64(l.ProbeSize*8) / rateBps)
	}
	return &TrainPlan{link: l, n: n, gI: gI}, nil
}

// GI returns the plan's input gap — the nominal spacing the probing
// rate resolves to — so budget-aware callers can price a train before
// sending it.
func (p *TrainPlan) GI() sim.Time { return p.gI }

// MeasureTrain sends reps independent replications of an n-packet train
// with input gap corresponding to rateBps and collects the dispersion
// and per-index access delays. Replications run on a worker pool of
// l.Workers goroutines (GOMAXPROCS when zero), claimed in contiguous
// batches, with each worker reusing one simulation engine (TrainMeter)
// across the replications it executes; each replication's randomness is
// derived purely from (l.Seed, replication index), so the result is
// identical at any worker count and chunking.
func MeasureTrain(l Link, n int, rateBps float64, reps int) (*TrainStats, error) {
	plan, err := PlanTrain(l, n, rateBps)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("probe: %d replications", reps)
	}
	samples, err := runner.MapBatches(reps, l.Workers, 0,
		func() *TrainMeter { return &TrainMeter{} },
		func(m *TrainMeter, rep int) (TrainSample, error) {
			return plan.MeasureOne(m, rep)
		})
	if err != nil {
		return nil, err
	}
	return &TrainStats{N: n, GI: plan.gI, L: plan.link.ProbeSize, Reps: reps, Samples: samples}, nil
}

// MeasureOne runs replication rep of the plan on meter m, reusing m's
// engine across calls; a nil meter uses a fresh engine. The sample is a
// pure function of (plan, rep) — the determinism unit the worker pool
// relies on; the meter is an arena, never state that leaks between
// replications.
//
// The run stops the instant the train is fully resolved — every probe
// packet delivered or dropped by the retry limit — instead of grinding
// the cross-traffic through the rest of the drain horizon. Everything
// the sample reads happens before that instant, so the measured values
// are identical to a full-horizon run; only the wasted tail is cut.
// Cross-traffic stations' frames are not retained at all (the sample
// never reads them), and a run that hits the horizon with unresolved
// probes is flagged Truncated.
func (p *TrainPlan) MeasureOne(m *TrainMeter, rep int) (TrainSample, error) {
	l, n := &p.link, p.n
	cfg := l.scenario(n, p.gI, int64(rep))
	sample := TrainSample{
		Departures:   make([]sim.Time, n),
		AccessDelays: make([]float64, n),
	}
	for i := range sample.Departures {
		sample.Departures[i] = -1
		sample.AccessDelays[i] = -1
	}
	resolved := 0
	wantQueue := len(l.Contenders) > 0
	if wantQueue {
		sample.QueueAtDepart = make([]float64, 0, n)
	}
	cfg.OnDepart = func(e *mac.Engine, f *mac.Frame) {
		if !f.Probe {
			return
		}
		if wantQueue {
			sample.QueueAtDepart = append(sample.QueueAtDepart, float64(e.QueueLen(1)))
		}
		if f.Index >= 0 && f.Index < n {
			resolved++
		}
	}
	cfg.OnEvent = func(ev mac.Event) {
		if ev.Kind == mac.EvDrop && ev.Probe && ev.Index >= 0 && ev.Index < n {
			resolved++
		}
	}
	cfg.StopWhen = func() bool { return resolved >= n }
	cfg.RecordFrames = func(station int) bool { return station == 0 }
	res, err := m.run(cfg)
	if err != nil {
		return TrainSample{}, err
	}
	for _, f := range res.ProbeFrames(0) {
		if f.Index >= 0 && f.Index < n {
			sample.Departures[f.Index] = f.Departed
			sample.AccessDelays[f.Index] = f.AccessDelay().Seconds()
			sample.Delivered++
		}
	}
	// Every resolved probe was transmitted (delivered, or carried to the
	// retry limit and dropped); unresolved probes of a truncated run
	// never reached the air and must not be charged to cost ledgers.
	sample.Injected = resolved
	sample.Truncated = resolved < n
	sample.GO = outputGap(sample.Departures)
	return sample, nil
}

// outputGap computes (d_last - d_first)/(count-1) over delivered probes.
func outputGap(deps []sim.Time) sim.Time {
	first, last := sim.Time(-1), sim.Time(-1)
	count := 0
	for _, d := range deps {
		if d < 0 {
			continue
		}
		if first < 0 {
			first = d
		}
		last = d
		count++
	}
	if count < 2 {
		return 0
	}
	return (last - first) / sim.Time(count-1)
}

// MeanGO returns the limiting-average output gap E[gO] in seconds over
// all replications that delivered at least two probes. Replications the
// simulation horizon truncated are excluded: their trains are missing a
// tail the channel never had the chance to serve, and counting their
// foreshortened dispersion as an ordinary measurement would bias E[gO]
// (and therefore the inferred rate) under saturation.
func (ts *TrainStats) MeanGO() float64 {
	sum, n := 0.0, 0
	for _, s := range ts.Samples {
		if s.Truncated {
			continue
		}
		if s.GO > 0 {
			sum += s.GO.Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ErrNoEstimate reports that a train measurement produced no usable
// dispersion sample: every replication was either truncated by the
// simulation horizon or delivered fewer than two probe packets, so
// L/E[gO] is undefined. Callers that sweep many operating points can
// test for it with errors.Is and skip the point instead of aborting.
var ErrNoEstimate = errors.New("probe: no usable replication for a dispersion estimate")

// RateEstimate is the dispersion-based rate inference L/E[gO] in bit/s
// (Section 5.3's estimator of ro). When no replication yields a usable
// dispersion — all trains truncated by the horizon, or fewer than two
// probes delivered everywhere — it returns NaN and an error wrapping
// ErrNoEstimate rather than a silent (and bogus) 0 bit/s.
func (ts *TrainStats) RateEstimate() (float64, error) {
	g := ts.MeanGO()
	if g <= 0 {
		truncated, short := 0, 0
		for _, s := range ts.Samples {
			switch {
			case s.Truncated:
				truncated++
			case s.GO <= 0:
				short++
			}
		}
		return math.NaN(), fmt.Errorf("%w (%d replications: %d truncated by the horizon, %d delivered <2 probes)",
			ErrNoEstimate, len(ts.Samples), truncated, short)
	}
	return float64(ts.L*8) / g, nil
}

// DelaysByIndex returns the replication-by-index access delay matrix in
// seconds, skipping dropped packets (rows keep their length; dropped
// entries are removed per row from the tail comparisons by callers via
// the -1 sentinel filter).
func (ts *TrainStats) DelaysByIndex() [][]float64 {
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		row := make([]float64, 0, len(s.AccessDelays))
		for _, d := range s.AccessDelays {
			if d >= 0 {
				row = append(row, d)
			}
		}
		out = append(out, row)
	}
	return out
}

// QueueByIndex returns the replication-by-index contender queue-length
// matrix.
func (ts *TrainStats) QueueByIndex() [][]float64 {
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		out = append(out, s.QueueAtDepart)
	}
	return out
}

// InterDepartureGaps concatenates, over replications, the successive
// inter-departure gaps of each train (seconds) — the input for the
// MSER correction of Section 7.4. Gaps spanning a dropped packet are
// omitted.
func (ts *TrainStats) InterDepartureGaps() [][]float64 {
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		var row []float64
		prev := sim.Time(-1)
		for _, d := range s.Departures {
			if d < 0 {
				prev = -1
				continue
			}
			if prev >= 0 {
				row = append(row, (d - prev).Seconds())
			}
			prev = d
		}
		out = append(out, row)
	}
	return out
}

// MeasurePair runs packet-pair probing (a 2-packet train at infinite
// rate) and returns the mean dispersion-based capacity estimate in
// bit/s over reps replications. When no replication delivers a usable
// pair dispersion the error wraps ErrNoEstimate (and the value is NaN)
// instead of reporting 0 bit/s.
func MeasurePair(l Link, reps int) (float64, error) {
	ts, err := MeasureTrain(l, 2, 0, reps)
	if err != nil {
		return 0, err
	}
	return ts.RateEstimate()
}

// SteadyState measures the steady-state operating point at probing rate
// rateBps using one long constant-rate probing flow of the given
// duration (the paper uses >10000-packet trains). It returns the probe
// output rate and the carried rate of every other flow.
type SteadyState struct {
	ProbeRate   float64   // carried probing rate ro, bit/s
	FIFORate    float64   // carried FIFO cross-traffic on the probe station
	CrossRates  []float64 // carried rate per contender
	MeasureFrom sim.Time
	MeasureTo   sim.Time
	// ProbePackets is the number of probe frames delivered over the
	// whole run (warm-in quarter included) — the count a cost ledger
	// charges for the measurement, as opposed to the nominal
	// rate×duration/size arithmetic, which both truncates and pretends
	// undelivered offered load was sent.
	ProbePackets int
}

// MeasureSteadyState runs the long-train experiment at rate rateBps for
// the given duration (excluding warm-up).
func MeasureSteadyState(l Link, rateBps float64, duration sim.Time) (*SteadyState, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	l = l.WithDefaults()
	if rateBps <= 0 {
		return nil, fmt.Errorf("probe: steady state needs positive rate, got %g", rateBps)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("probe: non-positive duration %v", duration)
	}
	start := l.WarmUp
	end := start + duration
	probeSrc := traffic.Marked(traffic.NewCBR(rateBps, l.ProbeSize, start, end))
	cfg := l.EngineConfig(probeSrc, sim.NewRand(l.Seed).Split(0xabcd), l.Seed, end)
	res, err := mac.Run(cfg)
	if err != nil {
		return nil, err
	}

	// Skip the first quarter of the measurement window: the probing flow
	// itself needs to reach its stationary interaction (Section 4).
	from := start + duration/4
	to := end
	ss := &SteadyState{MeasureFrom: from, MeasureTo: to}

	// Split station-0 throughput into probe and FIFO shares.
	var probeBits, fifoBits int64
	for _, f := range res.Frames[0] {
		if f.Probe {
			ss.ProbePackets++
		}
		if f.Departed < from || f.Departed > to {
			continue
		}
		if f.Probe {
			probeBits += int64(f.Size) * 8
		} else {
			fifoBits += int64(f.Size) * 8
		}
	}
	win := (to - from).Seconds()
	ss.ProbeRate = float64(probeBits) / win
	ss.FIFORate = float64(fifoBits) / win
	for ci := range l.Contenders {
		ss.CrossRates = append(ss.CrossRates, res.Throughput(ci+1, from, to))
	}
	return ss, nil
}

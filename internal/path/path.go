// Package path composes multi-hop network paths out of heterogeneous
// hops — wired FIFO links and CSMA/CA WLAN links — and transits probing
// schedules through them hop by hop.
//
// The paper deliberately takes a packet-based, network-layer view so
// its findings "are not limited to restricted paths" (Section 1), and
// its framework descends from the multi-hop probing asymptotics of its
// reference [15]. This package provides the substrate to explore that
// setting: the departure sequence of hop k becomes the arrival sequence
// of hop k+1, so dispersion measured at the path output reflects the
// concatenation of FIFO and CSMA/CA distortions.
package path

import (
	"fmt"
	"sort"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/queuesim"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Hop transits a time-ordered packet schedule and returns the departure
// schedule (same packets, later timestamps, original order preserved
// for FIFO hops; the WLAN hop preserves per-station FIFO order).
type Hop interface {
	// Transit consumes arrivals and returns departures. rep
	// individualises randomness across replications.
	Transit(arrivals []traffic.Arrival, rep int64) ([]traffic.Arrival, error)
	// Name describes the hop.
	Name() string
}

// FIFOHop is a wired store-and-forward link: fixed capacity in bit/s
// and optional Poisson cross-traffic sharing the queue (the classical
// single-hop model of Eq. 1).
type FIFOHop struct {
	// CapacityBps is the link rate.
	CapacityBps float64
	// CrossBps/CrossSize describe Poisson cross-traffic (0 = none).
	CrossBps  float64
	CrossSize int
	// Seed drives the cross-traffic process.
	Seed int64
}

// Name implements Hop.
func (h FIFOHop) Name() string { return fmt.Sprintf("fifo(%.1fMb/s)", h.CapacityBps/1e6) }

// Transit implements Hop using the sample-path queueing simulator.
// Cross-traffic generated inside the hop contends for the queue but
// exits locally (it does not continue down the path).
func (h FIFOHop) Transit(arrivals []traffic.Arrival, rep int64) ([]traffic.Arrival, error) {
	if h.CapacityBps <= 0 {
		return nil, fmt.Errorf("path: FIFO hop capacity %g", h.CapacityBps)
	}
	if err := traffic.Validate(arrivals); err != nil {
		return nil, err
	}
	type tagged struct {
		a       traffic.Arrival
		transit bool
	}
	all := make([]tagged, 0, len(arrivals))
	for _, a := range arrivals {
		all = append(all, tagged{a, true})
	}
	if h.CrossBps > 0 {
		if h.CrossSize <= 0 {
			return nil, fmt.Errorf("path: cross traffic needs a packet size")
		}
		end := 2 * sim.Second
		if len(arrivals) > 0 {
			end = arrivals[len(arrivals)-1].At + 2*sim.Second
		}
		r := sim.NewRand(h.Seed).Split(uint64(rep) + 1)
		for _, c := range traffic.Collect(traffic.NewPoisson(r, h.CrossBps, h.CrossSize, 0, end)) {
			all = append(all, tagged{c, false})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].a.At < all[j].a.At })
	}
	jobs := make([]queuesim.Job, len(all))
	for i, t := range all {
		jobs[i] = queuesim.Job{
			Arrive:  t.a.At,
			Service: sim.FromSeconds(float64(t.a.Size*8) / h.CapacityBps),
			Probe:   t.a.Probe,
			Index:   t.a.Index,
		}
	}
	deps, err := queuesim.Simulate(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]traffic.Arrival, 0, len(arrivals))
	for i, d := range deps {
		if !all[i].transit {
			continue
		}
		out = append(out, traffic.Arrival{
			At:    d.Depart,
			Size:  all[i].a.Size,
			Probe: all[i].a.Probe,
			Index: all[i].a.Index,
		})
	}
	return out, nil
}

// WLANContender describes one contending cross-traffic station on a
// WLANHop: a Poisson flow at RateBps with fixed Size-byte packets,
// optionally on an 802.11e access category and a non-default data
// rate, so a multi-hop path can contain a heterogeneous cell.
type WLANContender struct {
	RateBps float64
	Size    int
	// AC is the station's 802.11e access category; the zero value is
	// plain DCF.
	AC phy.AccessCategory
	// DataRateBps is the station's data-frame modulation rate in
	// bit/s; 0 means the hop PHY's DataRate.
	DataRateBps float64
}

// WLANHop is a CSMA/CA link: the transiting schedule is offered to one
// DCF station contending with configured Poisson cross stations.
type WLANHop struct {
	Phy phy.Params // zero Name = 802.11b defaults
	// Contenders on separate stations.
	Contenders []WLANContender
	Seed       int64
}

// Name implements Hop.
func (h WLANHop) Name() string { return "wlan" }

// Transit implements Hop with the DCF engine. The transiting schedule
// and the hop-local cross flows feed the engine as lazy
// traffic.Sources, and the run stops the instant the last transiting
// frame resolves (delivered or dropped) — the cross traffic's tail is
// never simulated, and only the transit station's frames are retained.
// Both cuts are invisible in the output: everything the hop forwards
// departed before the stop instant.
func (h WLANHop) Transit(arrivals []traffic.Arrival, rep int64) ([]traffic.Arrival, error) {
	p := h.Phy
	if p.Name == "" {
		p = phy.B11()
	}
	if err := traffic.Validate(arrivals); err != nil {
		return nil, err
	}
	end := sim.Time(2 * sim.Second)
	if len(arrivals) > 0 {
		end = arrivals[len(arrivals)-1].At + 2*sim.Second
	}
	cfg := mac.Config{Phy: p, Seed: h.Seed ^ (rep+1)*0x9e37}
	cfg.Stations = append(cfg.Stations, mac.StationConfig{
		Name:   "transit",
		Source: traffic.FromSchedule(arrivals),
	})
	r := sim.NewRand(h.Seed).Split(uint64(rep) + 7)
	for ci, c := range h.Contenders {
		cfg.Stations = append(cfg.Stations, mac.StationConfig{
			Name:     fmt.Sprintf("cross-%d", ci),
			Source:   traffic.NewPoisson(r.Split(uint64(ci)), c.RateBps, c.Size, 0, end),
			AC:       c.AC,
			DataRate: c.DataRateBps,
		})
	}
	resolved := 0
	cfg.OnDepart = func(_ *mac.Engine, f *mac.Frame) {
		if f.Station == 0 {
			resolved++
		}
	}
	cfg.OnEvent = func(ev mac.Event) {
		if ev.Kind == mac.EvDrop && ev.Station == 0 {
			resolved++
		}
	}
	cfg.StopWhen = func() bool { return resolved >= len(arrivals) }
	cfg.RecordFrames = func(station int) bool { return station == 0 }
	res, err := mac.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]traffic.Arrival, 0, len(arrivals))
	for _, f := range res.Frames[0] {
		out = append(out, traffic.Arrival{
			At:    f.Departed,
			Size:  f.Size,
			Probe: f.Probe,
			Index: f.Index,
		})
	}
	return out, nil
}

// Path is an ordered sequence of hops.
type Path struct {
	Hops []Hop
}

// Transit runs the schedule through every hop in order.
func (p Path) Transit(arrivals []traffic.Arrival, rep int64) ([]traffic.Arrival, error) {
	if len(p.Hops) == 0 {
		return nil, fmt.Errorf("path: no hops")
	}
	cur := arrivals
	var err error
	for i, h := range p.Hops {
		cur, err = h.Transit(cur, rep)
		if err != nil {
			return nil, fmt.Errorf("path: hop %d (%s): %w", i, h.Name(), err)
		}
	}
	return cur, nil
}

// MeasureDispersion sends reps replications of an n-packet train at
// rateBps (size bytes) through the path and returns the mean output
// gap in seconds at the path exit.
func (p Path) MeasureDispersion(n int, rateBps float64, size, reps int, baseSeed int64) (float64, error) {
	if n < 2 || reps < 1 {
		return 0, fmt.Errorf("path: need n >= 2 and reps >= 1")
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("path: rate %g", rateBps)
	}
	gI := sim.FromSeconds(float64(size*8) / rateBps)
	var sum float64
	var count int
	for rep := 0; rep < reps; rep++ {
		r := sim.NewRand(baseSeed).Split(uint64(rep))
		start := 200*sim.Millisecond + r.ExpTime(20*sim.Millisecond)
		train := traffic.Collect(traffic.NewTrain(n, gI, size, start))
		out, err := p.Transit(train, int64(rep))
		if err != nil {
			return 0, err
		}
		// Collect probe departures in index order.
		first, last := sim.Time(-1), sim.Time(-1)
		delivered := 0
		for _, a := range out {
			if !a.Probe {
				continue
			}
			if first < 0 || a.At < first {
				first = a.At
			}
			if a.At > last {
				last = a.At
			}
			delivered++
		}
		if delivered < 2 {
			continue
		}
		sum += (last - first).Seconds() / float64(delivered-1)
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("path: no train completed")
	}
	return sum / float64(count), nil
}

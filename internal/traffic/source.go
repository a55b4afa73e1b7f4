package traffic

import (
	"fmt"

	"csmabw/internal/sim"
)

// Source is a pull-based arrival generator, the only way traffic reaches
// the MAC engine. The engine pulls arrivals one at a time as simulated
// time advances, so a replication that stops early (for example once its
// probing train has drained) never pays for the tail of a schedule it
// will not consume — neither the memory nor the RNG draws that would
// fill it.
//
// A Source must yield arrivals in non-decreasing time order with
// positive sizes; the engine enforces this as it pulls. Sources are
// single-use and not safe for concurrent use: each simulation run owns
// its sources exclusively, exactly as it owns its RNG streams. A
// generator draws from its RNG only when an arrival is pulled, so its
// sequence is a pure function of the generator state, and a run that
// stops early sees a prefix of it.
type Source interface {
	// Next returns the next arrival, or ok == false when the process is
	// exhausted.
	Next() (a Arrival, ok bool)
}

// FromSchedule wraps a materialized schedule — a recorded trace, or the
// departures of an upstream hop — as a Source. The slice is not copied;
// callers must not mutate it while the source is live.
func FromSchedule(sched []Arrival) Source {
	return &sliceSource{sched: sched}
}

type sliceSource struct {
	sched []Arrival
	next  int
}

// Next implements Source over the wrapped schedule.
func (s *sliceSource) Next() (Arrival, bool) {
	if s.next >= len(s.sched) {
		return Arrival{}, false
	}
	a := s.sched[s.next]
	s.next++
	return a, true
}

// Collect drains a source into a slice, for tests and for callers that
// genuinely need the whole schedule.
func Collect(src Source) []Arrival {
	var out []Arrival
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// NewPoisson is a Poisson arrival process of fixed-size packets at the
// average rate rateBps (bit/s) over (start, end), drawing each
// exponential gap from r only when the next arrival is pulled. This is
// the paper's cross-traffic, which "follows a Poisson distribution".
func NewPoisson(r *sim.Rand, rateBps float64, size int, start, end sim.Time) Source {
	return &poissonSource{r: r, mean: gapFor(rateBps, size), size: size, t: start, end: end}
}

type poissonSource struct {
	r    *sim.Rand
	mean sim.Time
	size int
	t    sim.Time // last emitted arrival (process start before the first)
	end  sim.Time
}

// Next implements Source, drawing one exponential gap per pull.
func (p *poissonSource) Next() (Arrival, bool) {
	p.t += p.r.ExpTime(p.mean)
	if p.t >= p.end {
		return Arrival{}, false
	}
	return Arrival{At: p.t, Size: p.size, Index: -1}, true
}

// NewCBR is a constant-bit-rate process of fixed-size packets at
// rateBps (bit/s) over [start, end), the first packet at start.
func NewCBR(rateBps float64, size int, start, end sim.Time) Source {
	return &cbrSource{gap: gapFor(rateBps, size), size: size, t: start, end: end}
}

type cbrSource struct {
	gap  sim.Time
	size int
	t    sim.Time
	end  sim.Time
}

// Next implements Source with constant spacing.
func (c *cbrSource) Next() (Arrival, bool) {
	if c.t >= c.end {
		return Arrival{}, false
	}
	a := Arrival{At: c.t, Size: c.size, Index: -1}
	c.t += c.gap
	return a, true
}

// NewTrain is a periodic probing train: n packets of size bytes with a
// constant input gap gI, the first at start, marked as probes and
// indexed 0..n-1. This is the probing sequence of Section 5.1.2 of the
// paper; gI = 0 sends the packets back to back, the packet pair of
// Section 7.3 when n = 2.
func NewTrain(n int, gI sim.Time, size int, start sim.Time) Source {
	if n <= 0 {
		panic(fmt.Sprintf("traffic: train length %d must be positive", n))
	}
	if gI < 0 {
		panic(fmt.Sprintf("traffic: negative input gap %v", gI))
	}
	return &trainSource{n: n, gI: gI, size: size, start: start}
}

type trainSource struct {
	n     int
	gI    sim.Time
	size  int
	start sim.Time
	i     int
}

// Next implements Source, emitting the indexed probe packets.
func (t *trainSource) Next() (Arrival, bool) {
	if t.i >= t.n {
		return Arrival{}, false
	}
	a := Arrival{At: t.start + sim.Time(t.i)*t.gI, Size: t.size, Probe: true, Index: t.i}
	t.i++
	return a, true
}

// NewOnOff is a bursty on/off process over [start, end): exponential ON
// periods (mean onMean) during which packets arrive at constant peakBps
// spacing, separated by exponential OFF periods (mean offMean) with no
// arrivals. The long-run average rate is peakBps*onMean/(onMean+offMean).
// Section 6.3 of the paper predicts that burstier FIFO cross-traffic
// loosens the dispersion bounds and raises measurement variability;
// this generator provides the knob to test that.
func NewOnOff(r *sim.Rand, peakBps float64, size int, onMean, offMean, start, end sim.Time) Source {
	if onMean <= 0 || offMean < 0 {
		panic(fmt.Sprintf("traffic: on/off means %v/%v", onMean, offMean))
	}
	return &onOffSource{r: r, gap: gapFor(peakBps, size), size: size,
		onMean: onMean, offMean: offMean, t: start, end: end}
}

type onOffSource struct {
	r       *sim.Rand
	gap     sim.Time
	size    int
	onMean  sim.Time
	offMean sim.Time
	t       sim.Time
	end     sim.Time
	onEnd   sim.Time
	inOn    bool
}

// Next implements Source, advancing the burst/silence phases as
// needed to reach the next packet.
func (s *onOffSource) Next() (Arrival, bool) {
	for {
		if !s.inOn {
			if s.t >= s.end {
				return Arrival{}, false
			}
			s.onEnd = s.t + s.r.ExpTime(s.onMean)
			if s.onEnd > s.end {
				s.onEnd = s.end
			}
			s.inOn = true
		}
		if s.t < s.onEnd {
			a := Arrival{At: s.t, Size: s.size, Index: -1}
			s.t += s.gap
			return a, true
		}
		s.inOn = false
		if s.offMean > 0 {
			s.t += s.r.ExpTime(s.offMean)
		}
	}
}

// Marked wraps a source so every arrival is marked as part of the
// probing flow and indexed sequentially. It turns a CBR (or any other)
// flow into a long probing flow, as used by the steady-state
// rate-response measurements.
func Marked(src Source) Source {
	return &markedSource{src: src}
}

type markedSource struct {
	src Source
	i   int
}

// Next implements Source, stamping probe marks and indices.
func (m *markedSource) Next() (Arrival, bool) {
	a, ok := m.src.Next()
	if !ok {
		return Arrival{}, false
	}
	a.Probe = true
	a.Index = m.i
	m.i++
	return a, true
}

// MergeSources merges multiple time-ordered sources into one. Ties keep
// the order in which the sources were passed (source 0 before source
// 1, ...), so a probe packet scheduled at the same instant as a cross
// packet keeps its FIFO position. Merging is how FIFO cross-traffic and
// probe traffic come to share one transmission queue (Fig. 3).
func MergeSources(srcs ...Source) Source {
	if len(srcs) == 1 {
		return srcs[0]
	}
	m := &mergeSource{srcs: srcs,
		heads: make([]Arrival, len(srcs)), live: make([]bool, len(srcs))}
	return m
}

type mergeSource struct {
	srcs   []Source
	heads  []Arrival
	live   []bool
	primed bool
}

// Next implements Source: the earliest head among the live inputs,
// input order breaking ties.
func (m *mergeSource) Next() (Arrival, bool) {
	if !m.primed {
		for i, s := range m.srcs {
			m.heads[i], m.live[i] = s.Next()
		}
		m.primed = true
	}
	best := -1
	for i := range m.srcs {
		if !m.live[i] {
			continue
		}
		if best < 0 || m.heads[i].At < m.heads[best].At {
			best = i
		}
	}
	if best < 0 {
		return Arrival{}, false
	}
	a := m.heads[best]
	m.heads[best], m.live[best] = m.srcs[best].Next()
	return a, true
}

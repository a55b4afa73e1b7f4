// Package queuesim is the reproduction's substitute for the paper's
// Matlab queueing simulator (Appendix A): it "convolves a series of
// packet arrivals with a series of service times" to measure queue
// dynamics and output dispersion in isolation from the MAC machinery.
//
// It implements the exact sample-path objects of Section 5.1 of the
// paper: a single FIFO server fed with arrival instants a_i and service
// times (the access delays µ_i when the inputs come from the MAC
// engine), the Lindley waiting-time recursion, the hop workload process
// W(t), the intrusion residual R_i (Eqs. 12-14), the per-packet sojourn
// Z_i = µ_i + R_i + W(a_i) (Eq. 15), and the output gap g_O (Eq. 16).
package queuesim

import (
	"fmt"
	"sort"

	"csmabw/internal/sim"
)

// Job is one packet offered to the FIFO server.
type Job struct {
	Arrive  sim.Time
	Service sim.Time
	Probe   bool
	Index   int // probe-train index, -1 otherwise
}

// Departure is the outcome for one job.
type Departure struct {
	Job
	Start  sim.Time // service start
	Depart sim.Time // service completion (d_i)
}

// Wait is the queueing delay before service starts.
func (d Departure) Wait() sim.Time { return d.Start - d.Arrive }

// Sojourn is the paper's Z_i = d_i - a_i.
func (d Departure) Sojourn() sim.Time { return d.Depart - d.Arrive }

// Simulate runs the FIFO single-server sample path. Jobs must be sorted
// by arrival time; equal arrivals are served in input order (the order
// probe and FIFO cross-traffic were merged, as traffic.MergeSources
// keeps ties).
func Simulate(jobs []Job) ([]Departure, error) {
	out := make([]Departure, len(jobs))
	var free sim.Time // instant the server becomes free
	for i, j := range jobs {
		if j.Service < 0 {
			return nil, fmt.Errorf("queuesim: job %d has negative service %v", i, j.Service)
		}
		if i > 0 && j.Arrive < jobs[i-1].Arrive {
			return nil, fmt.Errorf("queuesim: job %d arrives %v before job %d at %v",
				i, j.Arrive, i-1, jobs[i-1].Arrive)
		}
		start := j.Arrive
		if free > start {
			start = free
		}
		dep := start + j.Service
		out[i] = Departure{Job: j, Start: start, Depart: dep}
		free = dep
	}
	return out, nil
}

// Probes filters the departures of the probing flow, ordered by index.
func Probes(deps []Departure) []Departure {
	var out []Departure
	for _, d := range deps {
		if d.Probe {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// OutputGap computes g_O = (d_n - d_1)/(n-1) over the probe departures
// (Eq. 16). It panics with fewer than two probes, which would make the
// dispersion undefined.
func OutputGap(deps []Departure) sim.Time {
	p := Probes(deps)
	if len(p) < 2 {
		panic("queuesim: output gap needs at least two probe departures")
	}
	return (p[len(p)-1].Depart - p[0].Depart) / sim.Time(len(p)-1)
}

// Workload evaluates the hop workload process W(t): the unfinished work
// (service time) in the system contributed by jobs that arrived at or
// before t, excluding jobs for which exclude returns true. Passing an
// exclude that selects probe jobs yields the paper's cross-traffic-only
// workload W(t); a nil exclude yields the superposed workload W~(t)
// (Section 5.1.5).
func Workload(jobs []Job, t sim.Time, exclude func(Job) bool) sim.Time {
	// Replay the sample path of the *included* jobs only: the workload
	// definition in the paper refers to the process of the cross-traffic
	// alone, "without considering the probing flow".
	var free sim.Time
	var w sim.Time
	for _, j := range jobs {
		if j.Arrive > t {
			break
		}
		if exclude != nil && exclude(j) {
			continue
		}
		start := j.Arrive
		if free > start {
			start = free
		}
		free = start + j.Service
	}
	if free > t {
		w = free - t
	}
	return w
}

// IntrusionResidual computes the paper's R_i series (Eq. 14) for a
// periodic probing flow with input gap gI entering a queue whose
// cross-traffic utilisation over (a_{i-1}, a_i] is ufifo[i-1]
// (dimensionless, 0 <= u <= 1) and whose probe access delays are mu[i].
// R_1 = 0; R_i = max(0, mu_{i-1} + R_{i-1} - (1-u)*gI).
func IntrusionResidual(mu []sim.Time, ufifo []float64, gI sim.Time) []sim.Time {
	n := len(mu)
	out := make([]sim.Time, n)
	for i := 1; i < n; i++ {
		u := 0.0
		if ufifo != nil {
			u = ufifo[i-1]
		}
		idle := sim.Time(float64(gI) * (1 - u))
		r := mu[i-1] + out[i-1] - idle
		if r < 0 {
			r = 0
		}
		out[i] = r
	}
	return out
}

// ResidualBounds evaluates the closed-form envelope of Eq. (23):
// max(0, sum(mu_i - gI)) <= R_n <= sum(mu_i), over i = 1..n-1.
func ResidualBounds(mu []sim.Time, gI sim.Time) (lo, hi sim.Time) {
	for i := 0; i+1 < len(mu); i++ {
		lo += mu[i] - gI
		hi += mu[i]
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// Utilization returns the fraction of (from, to] during which the server
// is busy, replaying only the included jobs (Eq. 7 with Eq. 9's window).
func Utilization(jobs []Job, from, to sim.Time, exclude func(Job) bool) float64 {
	if to <= from {
		return 0
	}
	var busy sim.Time
	var free sim.Time
	for _, j := range jobs {
		if exclude != nil && exclude(j) {
			continue
		}
		start := j.Arrive
		if free > start {
			start = free
		}
		end := start + j.Service
		free = end
		// Overlap of [start, end] with (from, to].
		s, e := start, end
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			busy += e - s
		}
		if start > to {
			break
		}
	}
	return float64(busy) / float64(to-from)
}

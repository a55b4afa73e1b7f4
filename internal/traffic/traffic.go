// Package traffic generates the arrival processes used by the paper's
// experiments as lazy Sources: Poisson cross-traffic (the paper's
// cross-traffic model), constant-bit-rate and bursty on/off flows, and
// the periodic probing trains used for dispersion measurements. It
// also provides the Erlang offered-load conversions used by the
// transient-duration study (Fig. 10).
package traffic

import (
	"fmt"
	"math"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
)

// Arrival is one packet handed to a station's transmission queue.
type Arrival struct {
	// At is the instant the packet enters the FIFO queue.
	At sim.Time
	// Size is the higher-layer payload size in bytes.
	Size int
	// Probe marks packets belonging to the measured probing flow.
	Probe bool
	// Index is the packet's position within its probing train
	// (0-based), or -1 for cross-traffic.
	Index int
}

// gapFor returns the mean inter-arrival time that produces rateBps with
// packets of size bytes. It panics unless the rate is positive and
// finite and the gap is at least one nanosecond: a zero gap would emit
// every arrival at one instant, forever.
func gapFor(rateBps float64, size int) sim.Time {
	if !(rateBps > 0) || math.IsInf(rateBps, 1) {
		panic(fmt.Sprintf("traffic: rate %g is not positive and finite", rateBps))
	}
	if size <= 0 {
		panic(fmt.Sprintf("traffic: non-positive packet size %d", size))
	}
	gap := sim.FromSeconds(float64(size*8) / rateBps)
	if gap < 1 {
		panic(fmt.Sprintf("traffic: rate %g b/s with %d-byte packets gives a gap under 1ns", rateBps, size))
	}
	return gap
}

// Validate checks that a schedule is time-ordered with positive sizes;
// the MAC engine requires ordered input.
func Validate(sched []Arrival) error {
	for i, a := range sched {
		if a.Size <= 0 {
			return fmt.Errorf("traffic: arrival %d has non-positive size %d", i, a.Size)
		}
		if a.At < 0 {
			return fmt.Errorf("traffic: arrival %d at negative time %v", i, a.At)
		}
		if i > 0 && a.At < sched[i-1].At {
			return fmt.Errorf("traffic: arrival %d at %v before predecessor at %v",
				i, a.At, sched[i-1].At)
		}
	}
	return nil
}

// OfferedLoad returns the offered load, in Erlangs, of a flow of
// fixed-size packets at rateBps over the given PHY: the fraction of
// channel time the flow would occupy if every frame exchange (DIFS +
// mean initial backoff + DATA + SIFS + ACK) ran uncontended. 1 Erlang
// means the flow alone saturates the channel; it is the normalisation
// Fig. 10 uses for probing and cross-traffic loads.
func OfferedLoad(p phy.Params, rateBps float64, size int) float64 {
	if rateBps < 0 {
		panic(fmt.Sprintf("traffic: negative rate %g", rateBps))
	}
	if rateBps == 0 {
		return 0
	}
	lambda := rateBps / float64(size*8) // packets per second
	cycle := p.DIFS + sim.Time(p.CWMin/2)*p.Slot + p.SuccessExchangeTime(size)
	return lambda * cycle.Seconds()
}

// RateForLoad inverts OfferedLoad: the bit rate that offers the given
// load in Erlangs with fixed-size packets.
func RateForLoad(p phy.Params, erlangs float64, size int) float64 {
	if erlangs < 0 {
		panic(fmt.Sprintf("traffic: negative load %g", erlangs))
	}
	cycle := p.DIFS + sim.Time(p.CWMin/2)*p.Slot + p.SuccessExchangeTime(size)
	lambda := erlangs / cycle.Seconds()
	return lambda * float64(size*8)
}

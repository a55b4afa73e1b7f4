// Package sim provides the deterministic simulation primitives every
// simulator in this repository shares: a simulated clock measured in
// integer nanoseconds, and seedable random-number streams.
//
// The IEEE 802.11 DCF engine in internal/mac and the sample-path
// queueing simulator in internal/queuesim each order their own events;
// they take their clock and their randomness from here, so every
// experiment is reproducible from a seed and never consults the wall
// clock.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated point in time, in nanoseconds since the start of the
// simulation. Using an integer representation keeps event ordering exact
// and avoids the accumulation error of floating-point clocks.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time. It is used as an
// "infinitely far in the future" sentinel.
const MaxTime Time = math.MaxInt64

// Seconds converts t to seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to microseconds as a float64.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a duration in seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMicros converts a duration in microseconds to a Time, rounding to
// the nearest nanosecond.
func FromMicros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// String renders the time with microsecond resolution, which is the
// natural scale of 802.11 MAC operations.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

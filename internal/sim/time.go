// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which the simulated Cell B.E.
// machine (PPE, SPEs, DMA engines, buses) executes in virtual time.
//
// The engine runs exactly one simulated process at a time; processes yield
// to the engine whenever they advance virtual time or block on a condition.
// Because execution is serialized, simulated processes may share state
// without locks, and two runs with the same inputs produce the same event
// order (see TestEngineDeterminism).
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute virtual timestamp in femtoseconds.
//
// Femtoseconds keep cycle-to-time conversion exact for the 3.2 GHz Cell
// clock (1 cycle = 312,500 fs) and keep rounding error for non-divisor
// frequencies (e.g. the 3.4 GHz "Desktop" host model) below one part in
// 1e5 per cycle. An int64 of femtoseconds covers about 2.5 hours of
// virtual time, far beyond any experiment in this repository.
type Time int64

// Duration is a span of virtual time in femtoseconds.
type Duration int64

// Common durations.
const (
	Femtosecond Duration = 1
	Picosecond           = 1000 * Femtosecond
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = math.MaxInt64

// Forever is the timeout that never expires: a wait bounded by Forever
// arms no timer and blocks until its condition holds.
const Forever Duration = math.MaxInt64

// Seconds reports the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds reports the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.6gms", d.Milliseconds())
	case abs >= Microsecond:
		return fmt.Sprintf("%.6gus", d.Microseconds())
	case abs >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dfs", int64(d))
	}
}

// String formats the timestamp as seconds.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("t=%.9fs", t.Seconds())
}

// Add returns the time d after t, saturating at Never.
func (t Time) Add(d Duration) Time {
	if t == Never {
		return Never
	}
	s := Time(int64(t) + int64(d))
	if d > 0 && s < t {
		return Never
	}
	return s
}

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(int64(t) - int64(u)) }

// Package clock models simulated time and GALS (globally asynchronous,
// locally synchronous) clocking for a multiple-clock-domain processor.
//
// Simulated time is a count of femtoseconds since the start of the
// simulation. Each clock domain owns an independently generated clock
// whose frequency may change at run time under DVFS control; domains may
// also carry Gaussian edge jitter. Inter-domain communication pays a
// synchronization penalty governed by a synchronization window, following
// the arbitration-based interface design used by the MCD implementation of
// Semeraro et al.
package clock

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in femtoseconds.
//
// Femtosecond resolution keeps every Table-1 quantity integral: a 1 GHz
// clock period is exactly 1e6 fs, a 300 ps synchronization window is
// 3e5 fs, and ±110 ps jitter is representable without rounding drift.
// An int64 of femtoseconds covers ~2.5 hours of simulated time, far more
// than any run here needs.
type Time int64

// Common durations expressed in Time units.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1e3
	Nanosecond  Time = 1e6
	Microsecond Time = 1e9
	Millisecond Time = 1e12
	Second      Time = 1e15
)

// Forever is a sentinel time later than any event in a simulation: the
// bound of a sleep that only an explicit wake ends.
const Forever Time = math.MaxInt64

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dfs", int64(t))
	}
}

// PeriodForMHz returns the clock period for a frequency given in MHz.
// It panics if the frequency is not positive.
func PeriodForMHz(mhz float64) Time {
	if mhz <= 0 {
		panic(fmt.Sprintf("clock: non-positive frequency %g MHz", mhz))
	}
	return Time(math.Round(1e9 / mhz)) // 1 MHz -> 1e9 fs period
}

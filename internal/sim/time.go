// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock measured in picoseconds and a radix-heap
// event queue. Model code runs either as handlers of typed events or as
// coroutine Procs (goroutines that hand control back and forth with the
// kernel, so exactly one goroutine is ever runnable). All ordering is
// deterministic: events fire in (time, insertion sequence) order.
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in picoseconds.
//
// Picosecond resolution lets us represent multi-GB/s link serialization
// delays exactly while still covering ~106 days of virtual time in an int64.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String renders the time with an adaptive unit, e.g. "1.25ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	}
}

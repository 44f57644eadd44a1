// Package sim implements a deterministic discrete-event simulation engine,
// functionally equivalent to the event-driven mode of the PeerSim simulator
// used in the Locaware paper (El Dick & Pacitti, DAMAP/EDBT 2009).
//
// The engine maintains a virtual clock and a priority queue of timestamped
// events. Events scheduled for the same instant are delivered in FIFO order
// of scheduling, which makes runs fully reproducible for a fixed seed.
package sim

import "fmt"

// Time is a virtual timestamp in microseconds since the start of the
// simulation. Microsecond granularity keeps millisecond-scale link latencies
// exact while leaving headroom for sub-millisecond processing delays.
type Time int64

// Common time units expressed in Time ticks.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time in a human-readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%dus", int64(t))
	}
}

// FromMillis converts a floating-point millisecond quantity (as produced by
// the latency model) into a Time, rounding to the nearest microsecond.
func FromMillis(ms float64) Time {
	if ms < 0 {
		ms = 0
	}
	return Time(float64(ms*1000) + 0.5)
}

// FromSeconds converts floating-point seconds into a Time.
func FromSeconds(s float64) Time {
	if s < 0 {
		s = 0
	}
	return Time(float64(s*float64(Second)) + 0.5)
}

// Event is a typed scheduled action: the engine calls Fire on the engine
// that delivers it. Concrete implementations live with the subsystem that
// schedules them (protocol message deliveries, scenario churn ticks, core
// submission chains) and are pooled by their owners, so steady-state
// scheduling allocates nothing — storing a pointer-typed Event in the
// queue's interface field does not box.
//
// Fire receives the delivering engine, so an event need not capture one to
// read the clock or schedule its successor.
type Event interface {
	Fire(e *Engine)
}

// Named is implemented by events that want a stable render name in traces
// and debugging output; see EventName.
type Named interface {
	// EventName returns a short kind label, e.g. "query-deliver".
	EventName() string
}

// EventName returns ev's render name: its EventName() when implemented,
// otherwise its Go type.
func EventName(ev Event) string {
	if n, ok := ev.(Named); ok {
		return n.EventName()
	}
	return fmt.Sprintf("%T", ev)
}

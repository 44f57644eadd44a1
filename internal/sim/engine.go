package sim

import (
	"errors"
	"math"
)

// Engine is a single-threaded discrete-event simulator. All scheduling and
// event delivery happen on the goroutine that calls Run; protocol code never
// needs locks. This mirrors PeerSim's event-driven engine, which the paper's
// evaluation is built on.
//
// Pending events sit in a 4-ary min-heap of (at, seq, event) entries (see
// queue.go); the engine owns no other event storage.
type Engine struct {
	now   Time
	queue eventQueue
	// processed counts delivered events.
	processed uint64
	// scheduled counts queued events; the next one's sequence number.
	scheduled uint64
	// horizon, when non-zero, is the last instant the engine schedules or
	// delivers an event at.
	horizon Time
	// observer, when non-nil, sees every delivered event just before
	// it fires. Installed by tests and timing harnesses; nil costs one
	// branch per delivery.
	observer func(at Time, ev Event)
	// kinds, when non-nil, tallies deliveries per event kind, and queueHW
	// the deepest queue a delivery left behind (see CountKinds); nil costs
	// one branch per delivery.
	kinds   map[string]uint64
	queueHW int
}

// ErrPast is returned when an event is scheduled before the current virtual
// time.
var ErrPast = errors.New("sim: event scheduled in the past")

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events delivered so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Scheduled returns the number of events scheduled so far.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// SetHorizon ends the simulation at t: events scheduled after t are
// dropped, and events already queued beyond t stay queued and are never
// delivered (see RunUntil). A zero horizon disables the limit. A run that
// learns its end while running sets it then and keeps running.
func (e *Engine) SetHorizon(t Time) { e.horizon = t }

// PostEventAt queues ev to fire at absolute virtual time at. With a pooled
// concrete event it allocates nothing in steady state. An event beyond the
// horizon is dropped without error, so callers near the end of a run need
// no special casing.
func (e *Engine) PostEventAt(at Time, ev Event) error {
	if at < e.now {
		return ErrPast
	}
	if e.horizon > 0 && at > e.horizon {
		return nil
	}
	e.queue.push(qent{at: at, seq: e.scheduled, ev: ev})
	e.scheduled++
	return nil
}

// PostEvent queues ev to fire after delay; it panics on a negative delay
// (the only invalid input).
func (e *Engine) PostEvent(delay Time, ev Event) {
	if delay < 0 {
		panic(ErrPast)
	}
	if err := e.PostEventAt(e.now+delay, ev); err != nil {
		panic(err)
	}
}

// Run processes events until the queue drains, the next event lies beyond
// the horizon, or maxEvents events have been delivered (0 means no limit).
// It returns the number of events delivered during this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	return e.RunUntil(Time(math.MaxInt64), maxEvents)
}

// RunUntil processes events with timestamps <= deadline and <= the horizon,
// subject to the same stopping conditions as Run. The horizon is read before
// every delivery, so one set by an event bounds the rest of the same call.
// The clock is left at the timestamp of the last delivered event, or at the
// bound when the next event lies beyond it.
func (e *Engine) RunUntil(deadline Time, maxEvents uint64) uint64 {
	var delivered uint64
	for maxEvents == 0 || delivered < maxEvents {
		qe, ok := e.queue.peek()
		if !ok {
			break
		}
		end := deadline
		if e.horizon > 0 {
			end = min(end, e.horizon)
		}
		if qe.at > end {
			if end > e.now && end != Time(math.MaxInt64) {
				e.now = end
			}
			break
		}
		e.queue.pop()
		e.now = qe.at
		if e.kinds != nil {
			// Named events count under their constant name, anonymous ones
			// share one bucket: a map update and a compare, no allocation
			// once every kind has been seen.
			kind := "event"
			if n, ok := qe.ev.(Named); ok {
				kind = n.EventName()
			}
			e.kinds[kind]++
			e.queueHW = max(e.queueHW, e.queue.Len())
		}
		if e.observer != nil {
			e.observer(e.now, qe.ev)
		}
		qe.ev.Fire(e)
		e.processed++
		delivered++
	}
	return delivered
}

// CountKinds makes the engine tally every delivery by event kind and track
// the queue-depth high water; call it before the run. Off, EventsByKind and
// QueueHighWater stay zero.
func (e *Engine) CountKinds() { e.kinds = make(map[string]uint64) }

// EventsByKind returns the deliveries counted per kind so far — the engine's
// own map, not a copy: a later Run keeps counting into it.
func (e *Engine) EventsByKind() map[string]uint64 { return e.kinds }

// QueueHighWater returns the deepest the queue was seen just after a pop.
func (e *Engine) QueueHighWater() int { return e.queueHW }

// SetObserver installs fn to see every delivered event just before it
// fires (nil uninstalls). The hook exists for tests and harnesses that
// assert on delivery order or time the events from outside.
func (e *Engine) SetObserver(fn func(at Time, ev Event)) { e.observer = fn }

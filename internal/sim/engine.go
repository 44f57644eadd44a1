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
// Pending events live in a flat slab arena (see arena.go) and are ordered
// by a 4-ary min-heap of compact (at, seq, ref) entries (see queue.go): the
// heap moves 24-byte keys, never the event payloads.
type Engine struct {
	now     Time
	queue   eventQueue
	arena   eventArena
	seq     uint64
	stopped bool
	// processed counts delivered (non-cancelled) events.
	processed uint64
	// scheduled counts all Schedule calls, including later-cancelled ones.
	scheduled uint64
	// cancelled counts dead events discarded at pop time.
	cancelled uint64
	// horizon, when non-zero, rejects events scheduled beyond it.
	horizon Time
	// route, when non-nil, may claim a typed fire-and-forget event instead
	// of queueing it locally. The sharded runner installs it to divert
	// events destined to another shard into that shard's mailbox.
	route func(at Time, ev Event) bool
	// observer, when non-nil, sees every delivered typed event just before
	// it fires. Installed by tests and debugging harnesses (the sharded
	// determinism test records global delivery order through it); nil costs
	// one branch per delivery.
	observer func(at Time, ev Event)
	// instr, when non-nil, counts every delivery into shard-confined
	// observability cells (see internal/obs). Unlike observer it is safe
	// under the parallel epoch drain — each engine owns its cells — and
	// costs one branch per delivery when disabled.
	instr *EngineInstr
	// shard is this engine's index under a sharded runner (0 for a plain
	// engine). Event handlers use it to resolve shard-confined state from
	// the engine they fire on.
	shard int
}

// Shard returns the engine's shard index: its position under a sharded
// runner, or 0 for a standalone engine. Protocol state that is split by
// shard indexes on this value from within event handlers.
func (e *Engine) Shard() int { return e.shard }

// alloc takes an event slot from the arena and fills its payload.
func (e *Engine) alloc(at Time, h Handler, t Event) (eventRef, *event) {
	r, ev := e.arena.alloc()
	ev.at, ev.seq, ev.handler, ev.typed = at, e.seq, h, t
	return r, ev
}

// recycle returns a popped slot to the arena free list. The dead mark (set
// by the drain loop before firing, or by Cancel) plus the next alloc's
// fresh generation stamp invalidate outstanding handles.
func (e *Engine) recycle(r eventRef, ev *event) {
	ev.handler = nil
	ev.typed = nil
	ev.dead = true
	e.arena.release(r)
}

// ErrPast is returned when an event is scheduled before the current virtual
// time.
var ErrPast = errors.New("sim: event scheduled in the past")

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of events currently queued, including cancelled
// events that have not yet been discarded.
func (e *Engine) Len() int { return e.queue.Len() }

// Processed returns the number of events delivered so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Scheduled returns the number of events scheduled so far.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Cancelled returns the number of cancelled events discarded so far. A
// cancelled event stays queued until its turn to pop.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// SetHorizon rejects (silently drops) any event scheduled after t. A zero
// horizon disables the limit. It is used to keep long-tailed retransmission
// chains from extending a bounded experiment.
func (e *Engine) SetHorizon(t Time) { e.horizon = t }

// Schedule queues h to run after delay. A negative delay is an error; a zero
// delay runs h at the current instant, after all events already queued for
// that instant.
func (e *Engine) Schedule(delay Time, h Handler) (*Timer, error) {
	if delay < 0 {
		return nil, ErrPast
	}
	return e.ScheduleAt(e.now+delay, h)
}

// ScheduleAt queues h to run at absolute virtual time at.
func (e *Engine) ScheduleAt(at Time, h Handler) (*Timer, error) {
	return e.scheduleAt(at, h, nil)
}

// ScheduleEventAt queues a typed event to fire at absolute virtual time at,
// returning a cancellation handle. Timers are engine-local: the sharded
// router never diverts a cancellable event, so schedule timers on the shard
// that owns their state.
func (e *Engine) ScheduleEventAt(at Time, ev Event) (*Timer, error) {
	return e.scheduleAt(at, nil, ev)
}

// ScheduleEvent queues a typed event to fire after delay, with a
// cancellation handle.
func (e *Engine) ScheduleEvent(delay Time, ev Event) (*Timer, error) {
	if delay < 0 {
		return nil, ErrPast
	}
	return e.scheduleAt(e.now+delay, nil, ev)
}

func (e *Engine) scheduleAt(at Time, h Handler, t Event) (*Timer, error) {
	if at < e.now {
		return nil, ErrPast
	}
	if e.horizon > 0 && at > e.horizon {
		// Dropped by horizon policy: return a dead timer, not an error, so
		// callers near the end of a run need no special casing.
		return deadTimer, nil
	}
	r, ev := e.alloc(at, h, t)
	e.queue.push(qent{at: at, seq: e.seq, ref: r})
	e.seq++
	e.scheduled++
	return &Timer{e: e, ref: r, gen: ev.gen}, nil
}

// PostAt is ScheduleAt without a cancellation handle: the hot-path variant
// for fire-and-forget events, which schedules with zero allocations beyond
// the handler closure. PostEventAt is the fully allocation-free typed form.
func (e *Engine) PostAt(at Time, h Handler) error {
	if at < e.now {
		return ErrPast
	}
	if e.horizon > 0 && at > e.horizon {
		return nil // dropped by horizon policy, as ScheduleAt
	}
	r, _ := e.alloc(at, h, nil)
	e.queue.push(qent{at: at, seq: e.seq, ref: r})
	e.seq++
	e.scheduled++
	return nil
}

// PostEventAt queues a typed event to fire at absolute virtual time at,
// without a cancellation handle. This is the hot-path scheduling primitive:
// with a pooled concrete event it allocates nothing in steady state. Under
// the sharded runner, a Destined event posted here may be diverted to the
// destination peer's shard.
func (e *Engine) PostEventAt(at Time, ev Event) error {
	if at < e.now {
		return ErrPast
	}
	if e.horizon > 0 && at > e.horizon {
		return nil // dropped by horizon policy, as ScheduleAt
	}
	if e.route != nil && e.route(at, ev) {
		return nil // claimed by the shard router
	}
	r, _ := e.alloc(at, nil, ev)
	e.queue.push(qent{at: at, seq: e.seq, ref: r})
	e.seq++
	e.scheduled++
	return nil
}

// PostEvent queues a typed event to fire after delay without a cancellation
// handle; it panics on a negative delay (the only invalid input).
func (e *Engine) PostEvent(delay Time, ev Event) {
	if delay < 0 {
		panic(ErrPast)
	}
	if err := e.PostEventAt(e.now+delay, ev); err != nil {
		panic(err)
	}
}

// Post queues h to run after delay without a cancellation handle; it panics
// on a negative delay (the only invalid input). It is the allocation-free
// counterpart of MustSchedule.
func (e *Engine) Post(delay Time, h Handler) {
	if delay < 0 {
		panic(ErrPast)
	}
	if err := e.PostAt(e.now+delay, h); err != nil {
		panic(err)
	}
}

// MustSchedule is Schedule for callers with a known-valid delay; it panics on
// error. Protocol code uses it with delays derived from the latency model,
// which are always non-negative.
func (e *Engine) MustSchedule(delay Time, h Handler) *Timer {
	t, err := e.Schedule(delay, h)
	if err != nil {
		panic(err)
	}
	return t
}

// Stop makes the current Run return after the in-flight event completes.
// Under the sharded loop, stopping a shard's engine ends the whole
// Sharded run: the remaining shards finish the current epoch, then the
// epoch loop returns.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue drains, Stop is called, or maxEvents
// events have been delivered (0 means no limit). It returns the number of
// events delivered during this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	return e.RunUntil(Time(math.MaxInt64), maxEvents)
}

// RunUntil processes events with timestamps <= deadline, subject to the same
// stopping conditions as Run. The clock is left at the timestamp of the last
// delivered event (or at deadline if the next event lies beyond it and at
// least one event was inspected).
func (e *Engine) RunUntil(deadline Time, maxEvents uint64) uint64 {
	e.stopped = false
	var delivered uint64
	for !e.stopped {
		if maxEvents > 0 && delivered >= maxEvents {
			break
		}
		qe, ok := e.queue.peek()
		if !ok {
			break
		}
		if qe.at > deadline {
			if deadline > e.now && deadline != Time(math.MaxInt64) {
				e.now = deadline
			}
			break
		}
		e.queue.pop()
		ev := e.arena.get(qe.ref)
		if ev.dead {
			e.cancelled++
			e.recycle(qe.ref, ev)
			continue
		}
		e.now = qe.at
		ev.dead = true
		h, t := ev.handler, ev.typed
		e.recycle(qe.ref, ev)
		if e.instr != nil {
			e.instr.record(e, t)
		}
		if t != nil {
			if e.observer != nil {
				e.observer(e.now, t)
			}
			t.Fire(e)
		} else {
			h(e)
		}
		e.processed++
		delivered++
	}
	return delivered
}

// SetObserver installs fn to see every delivered typed event just before it
// fires (nil uninstalls). Handler closures are not observed; the hook
// exists for tests and debugging harnesses that assert on delivery order.
func (e *Engine) SetObserver(fn func(at Time, ev Event)) { e.observer = fn }

// advanceTo moves the clock forward to t without delivering anything; the
// sharded runner uses it to keep idle shards' clocks in step with the
// epoch. It never moves the clock backwards.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// peekTime returns the timestamp of the earliest pending live event, or
// (0, false) when the queue holds none. Cancelled events at the head are
// discarded on the way.
func (e *Engine) peekTime() (Time, bool) {
	for {
		qe, ok := e.queue.peek()
		if !ok {
			return 0, false
		}
		ev := e.arena.get(qe.ref)
		if !ev.dead {
			return qe.at, true
		}
		e.queue.pop()
		e.cancelled++
		e.recycle(qe.ref, ev)
	}
}

// Drain discards all pending events without running them.
func (e *Engine) Drain() {
	for {
		qe, ok := e.queue.pop()
		if !ok {
			return
		}
		e.recycle(qe.ref, e.arena.get(qe.ref))
	}
}

// capFreeList reaps pooled event storage down to the live population plus
// one slab, so a burst's worth of recycled slots does not pin memory for
// the rest of the run. Only whole tail slabs are returned; the sharded
// runner calls this at the sequential epoch barrier.
func (e *Engine) capFreeList() {
	if limit := e.arena.live() + arenaSlabSize; e.arena.freeLen() > limit {
		e.arena.reap(limit)
	}
}

package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// ShardMap assigns a peer id to a shard. The core harness partitions peers
// by physical locality (locId modulo shard count), which is what makes the
// partition meaningful: most protocol traffic in a locality-aware overlay
// stays inside a locality, so most events never cross a shard boundary.
type ShardMap func(peer int) int

// ShardedOptions configures a sharded event loop.
type ShardedOptions struct {
	// Shards is the number of per-locality event queues. Values <= 1 run a
	// single queue that is bit-identical to a plain Engine.
	Shards int
	// ShardOf maps a destination peer to its shard; required when
	// Shards > 1. Results are reduced modulo Shards defensively.
	ShardOf ShardMap
	// Parallel drains the shards of one epoch on separate goroutines.
	// All state touched by the events of a shard must then be confined to
	// that shard. The protocol path satisfies this with per-shard pending
	// maps, pools and record sinks; runs that install cross-shard readers
	// (a tracer, a scenario mutating shared substrates) switch back to the
	// sequential drain, which delivers the identical event order.
	Parallel bool
	// Lookahead widens each epoch's barrier from the minimum pending time
	// T to T+Lookahead. It must not exceed the minimum cross-shard event
	// delay the workload can produce: a cross-shard event scheduled to
	// arrive before the barrier is a fatal error. Zero (the default) is
	// always safe: epochs advance one distinct timestamp at a time.
	Lookahead Time
}

// mailItem is one cross-shard event in flight between epochs. (at, src,
// seq) is its deterministic sort key: src and seq order same-instant
// deliveries by sending shard and sending order, independent of how the
// epoch's shards were interleaved.
type mailItem struct {
	at  Time
	src int
	seq uint64
	ev  Event
}

// Sharded is a deterministic sharded discrete-event loop: one Engine per
// shard, drained epoch by epoch. Each epoch computes the barrier (the
// minimum pending timestamp across shards, plus lookahead), lets every
// shard drain its own queue up to the barrier, then flushes cross-shard
// events — diverted at scheduling time by a router installed on each
// engine — through a mailbox sorted by (time, source shard, source
// sequence). The event order is therefore a pure function of the workload
// and the shard layout, never of goroutine interleaving.
//
// Scheduling routes on the typed-event destination: a Destined event posted
// on any shard's engine lands in the queue of the shard owning its
// destination peer; undestined events (controls, submission chains) stay on
// the engine they were scheduled on, conventionally shard 0.
type Sharded struct {
	opts    ShardedOptions
	engines []*Engine
	// outbox[i] collects events diverted from shard i's engine during the
	// current epoch; outSeq[i] numbers them in sending order. Each is only
	// touched by shard i's drain, so parallel epochs need no locks.
	outbox  [][]mailItem
	outSeq  []uint64
	flush   []mailItem
	counts  []uint64
	stopped bool
	// err records a barrier violation: a cross-shard event due before its
	// destination shard's clock, i.e. a Lookahead wider than the workload's
	// minimum cross-shard delay. It ends the run at the next epoch
	// boundary and is surfaced through Err.
	err error
	// epochHook, when non-nil, runs after every epoch's drain, on the
	// caller's goroutine (never concurrently with shard drains). The
	// protocol layer uses it to merge per-shard bookkeeping — cross-shard
	// message counts, finalized-query records — deterministically.
	epochHook func()
	// Persistent drain workers: one parked goroutine per shard, woken each
	// parallel epoch through workerStart[i] (buffered, one barrier per
	// epoch) and joined on workerDone. Started lazily by RunUntil on its
	// first parallel epoch and stopped before it returns, so no goroutine
	// outlives a run.
	workerStart []chan Time
	workerDone  chan struct{}
	workerEpoch time.Time
	// instr, when non-nil, records epoch counts, mailbox traffic and
	// wall-clock drain/barrier timings (see EnableObs). It never affects
	// event order.
	instr *ShardedInstr
}

// NewSharded builds a sharded loop. It panics on Shards > 1 without a
// ShardOf — a configuration bug, not a runtime condition.
func NewSharded(opts ShardedOptions) *Sharded {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Shards > 1 && opts.ShardOf == nil {
		panic("sim: NewSharded needs a ShardOf map for Shards > 1")
	}
	if opts.Lookahead < 0 {
		opts.Lookahead = 0
	}
	s := &Sharded{
		opts:    opts,
		engines: make([]*Engine, opts.Shards),
		outbox:  make([][]mailItem, opts.Shards),
		outSeq:  make([]uint64, opts.Shards),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.engines[i].shard = i
	}
	if opts.Shards > 1 {
		for i := range s.engines {
			i := i
			s.engines[i].route = func(at Time, ev Event) bool {
				d, ok := ev.(Destined)
				if !ok {
					return false
				}
				if s.shardOf(d.EventDst()) == i {
					return false
				}
				s.outSeq[i]++
				s.outbox[i] = append(s.outbox[i], mailItem{at: at, src: i, seq: s.outSeq[i], ev: ev})
				return true
			}
		}
	}
	return s
}

// shardOf reduces the user map's result into [0, Shards).
func (s *Sharded) shardOf(peer int) int {
	k := s.opts.ShardOf(peer) % s.opts.Shards
	if k < 0 {
		k += s.opts.Shards
	}
	return k
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.engines) }

// Engine returns shard i's engine. Shard 0 conventionally hosts the
// control plane: periodic controls, submission chains, and every
// undestined event scheduled through it stay there.
func (s *Sharded) Engine(i int) *Engine { return s.engines[i] }

// Now returns the frontmost shard clock. In the sequential epoch loop all
// clocks agree at each event delivery (idle shards are advanced to the
// epoch time), so this is the global virtual time.
func (s *Sharded) Now() Time {
	now := s.engines[0].Now()
	for _, e := range s.engines[1:] {
		if t := e.Now(); t > now {
			now = t
		}
	}
	return now
}

// Processed returns the number of events delivered across all shards.
func (s *Sharded) Processed() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Processed()
	}
	return n
}

// Len returns the number of queued events across all shards, including
// mailbox items awaiting the next flush.
func (s *Sharded) Len() int {
	n := 0
	for _, e := range s.engines {
		n += e.Len()
	}
	for _, box := range s.outbox {
		n += len(box)
	}
	return n
}

// SetHorizon applies the drop-after-t policy to every shard; mailbox items
// beyond the horizon are dropped at flush time by the same rule.
func (s *Sharded) SetHorizon(t Time) {
	for _, e := range s.engines {
		e.SetHorizon(t)
	}
}

// SetObserver installs fn on every shard's engine. Only meaningful in
// sequential mode, where deliveries happen one at a time; a parallel run
// would invoke fn concurrently.
func (s *Sharded) SetObserver(fn func(at Time, ev Event)) {
	for _, e := range s.engines {
		e.SetObserver(fn)
	}
}

// Stop makes the current Run return at the next epoch boundary.
func (s *Sharded) Stop() { s.stopped = true }

// SetParallel switches the epoch drains between goroutine-per-shard and
// sequential execution. Both deliver the identical event order; callers
// toggle it per run depending on whether every piece of state the events
// touch is shard-confined (see ShardedOptions.Parallel).
func (s *Sharded) SetParallel(parallel bool) { s.opts.Parallel = parallel }

// SetEpochHook installs fn to run after every epoch's drain (sequentially,
// never concurrently with shard goroutines), and once more when a run
// returns. nil uninstalls. The protocol layer merges its per-shard
// bookkeeping here.
func (s *Sharded) SetEpochHook(fn func()) { s.epochHook = fn }

// Err returns the barrier-violation error that aborted the run, if any. A
// non-nil value means the configured Lookahead exceeded the workload's
// minimum cross-shard delay; results past that epoch are partial.
func (s *Sharded) Err() error { return s.err }

// flushMail moves every outbox item into its destination shard's queue, in
// (time, source shard, source sequence) order — the deterministic merge
// that makes cross-shard delivery independent of drain interleaving.
func (s *Sharded) flushMail() {
	s.flush = s.flush[:0]
	for i, box := range s.outbox {
		s.flush = append(s.flush, box...)
		for j := range box {
			box[j].ev = nil
		}
		s.outbox[i] = box[:0]
	}
	if len(s.flush) == 0 {
		return
	}
	slices.SortFunc(s.flush, func(x, y mailItem) int {
		switch {
		case x.at != y.at:
			if x.at < y.at {
				return -1
			}
			return 1
		case x.src != y.src:
			return x.src - y.src
		case x.seq < y.seq:
			return -1
		case x.seq > y.seq:
			return 1
		default:
			return 0
		}
	})
	for _, m := range s.flush {
		dstIdx := s.shardOf(m.ev.(Destined).EventDst())
		dst := s.engines[dstIdx]
		if err := dst.PostEventAt(m.at, m.ev); err != nil {
			// The only possible error is ErrPast: a cross-shard event due
			// inside the epoch that sent it, i.e. a Lookahead larger than
			// the workload's minimum cross-shard delay. Record it and end
			// the run instead of crashing the whole campaign.
			s.err = fmt.Errorf("sim: cross-shard event at t=%v from shard %d to shard %d arrived before the epoch barrier (destination clock %v, lookahead %v): %w",
				m.at, m.src, dstIdx, dst.Now(), s.opts.Lookahead, err)
			return
		}
	}
}

// minPending returns the earliest live event time across all shards.
func (s *Sharded) minPending() (Time, bool) {
	best, ok := Time(0), false
	for _, e := range s.engines {
		if t, live := e.peekTime(); live && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run processes events until every queue and mailbox drains, Stop is
// called, or maxEvents events have been delivered (0 means no limit).
func (s *Sharded) Run(maxEvents uint64) uint64 {
	return s.RunUntil(Time(math.MaxInt64), maxEvents)
}

// RunUntil processes events with timestamps <= deadline, epoch by epoch,
// subject to the same stopping conditions as Run. With one shard it
// delegates to the underlying engine and is bit-identical to a plain
// Engine run.
func (s *Sharded) RunUntil(deadline Time, maxEvents uint64) uint64 {
	if len(s.engines) == 1 {
		n := s.engines[0].RunUntil(deadline, maxEvents)
		if s.epochHook != nil {
			s.epochHook()
		}
		if s.instr != nil {
			s.instr.Drain()
		}
		return n
	}
	s.stopped = false
	// Decided once per run: the workers started here are the ones every
	// epoch below hands its barrier to.
	parallel := s.opts.Parallel && maxEvents == 0
	if parallel {
		s.startWorkers()
		defer s.stopWorkers()
	}
	var delivered uint64
	for !s.stopped {
		if maxEvents > 0 && delivered >= maxEvents {
			break
		}
		s.flushMail()
		if s.instr != nil {
			s.instr.crossCount += uint64(len(s.flush))
			s.instr.crossShard.Add(uint64(len(s.flush)))
		}
		if s.err != nil {
			break
		}
		minT, ok := s.minPending()
		if !ok {
			break
		}
		if minT > deadline {
			if deadline != Time(math.MaxInt64) {
				for _, e := range s.engines {
					e.advanceTo(deadline)
				}
			}
			break
		}
		barrier := minT
		if s.opts.Lookahead > 0 && barrier <= Time(math.MaxInt64)-s.opts.Lookahead {
			barrier += s.opts.Lookahead
		}
		if barrier > deadline {
			barrier = deadline
		}
		// Idle shards advance with the epoch so every clock reads the
		// global virtual time during deliveries.
		for _, e := range s.engines {
			e.advanceTo(minT)
		}
		var drainStart time.Time
		if s.instr != nil {
			drainStart = time.Now()
		}
		if parallel {
			delivered += s.drainParallel(barrier)
		} else {
			for _, e := range s.engines {
				var budget uint64
				if maxEvents > 0 {
					budget = maxEvents - delivered
				}
				delivered += e.RunUntil(barrier, budget)
				if e.stopped {
					// An event called Stop on its shard engine: honour
					// the plain-engine contract and end the whole run.
					s.stopped = true
				}
				if maxEvents > 0 && delivered >= maxEvents {
					break
				}
			}
		}
		var drainDur time.Duration
		if s.instr != nil {
			drainDur = time.Since(drainStart)
		}
		if s.epochHook != nil {
			// The epoch boundary: shard workers (if any) have joined, so
			// cross-shard merges are race-free here.
			s.epochHook()
		}
		if s.instr != nil {
			s.instr.endEpoch(drainDur)
		}
	}
	return delivered
}

// startWorkers parks one drain goroutine per shard. Each waits on its own
// start channel for an epoch barrier, drains its engine to it, and signals
// done; channel operations carry the happens-before edges, so the epoch
// loop reads counts and waits only after every done signal arrives.
func (s *Sharded) startWorkers() {
	if s.workerStart != nil {
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, len(s.engines))
	}
	s.workerStart = make([]chan Time, len(s.engines))
	s.workerDone = make(chan struct{}, len(s.engines))
	for i, e := range s.engines {
		ch := make(chan Time, 1)
		s.workerStart[i] = ch
		go func(i int, e *Engine, ch chan Time) {
			for barrier := range ch {
				s.counts[i] = e.RunUntil(barrier, 0)
				if in := s.instr; in != nil {
					// One writer per slot; read only after the join.
					in.waits[i] = time.Since(s.workerEpoch)
				}
				s.workerDone <- struct{}{}
			}
		}(i, e, ch)
	}
}

// stopWorkers releases the parked workers; RunUntil defers it so no
// goroutine outlives the run that started it.
func (s *Sharded) stopWorkers() {
	if s.workerStart == nil {
		return
	}
	for _, ch := range s.workerStart {
		close(ch)
	}
	s.workerStart = nil
	s.workerDone = nil
}

// drainParallel runs one epoch's shard drains concurrently. The result is
// identical to the sequential drain because shards share nothing inside an
// epoch: cross-shard events sit in per-shard outboxes until the
// deterministic flush, and each engine's delivery order is fixed by its
// own queue.
func (s *Sharded) drainParallel(barrier Time) uint64 {
	if s.instr != nil {
		s.workerEpoch = time.Now()
	}
	for _, ch := range s.workerStart {
		ch <- barrier
	}
	for range s.workerStart {
		<-s.workerDone
	}
	if s.instr != nil {
		s.instr.recordWaits()
	}
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	for _, e := range s.engines {
		if e.stopped {
			s.stopped = true
		}
	}
	return n
}

package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// hopEvent is a chain of destined events hopping across a synthetic peer
// set: each delivery bumps the destination's counter and re-posts itself to
// the next peer. One chain is one reused event object — the shard barrier
// hands it between shards, so pooled mutation is safe exactly as it is for
// protocol messages.
type hopEvent struct {
	chain  int
	chains int
	peers  int
	dst    int
	hops   int

	counts []uint32
	sumAt  []Time
	log    *[]hopRecord
}

type hopRecord struct {
	at    Time
	chain int
	peer  int
}

func (ev *hopEvent) EventDst() int     { return ev.dst }
func (ev *hopEvent) EventName() string { return "hop" }

func (ev *hopEvent) Fire(e *Engine) {
	ev.counts[ev.dst]++
	ev.sumAt[ev.dst] += e.Now()
	if ev.log != nil {
		*ev.log = append(*ev.log, hopRecord{at: e.Now(), chain: ev.chain, peer: ev.dst})
	}
	if ev.hops == 0 {
		return
	}
	ev.hops--
	ev.dst = (ev.dst + ev.chain + 1) % ev.peers
	// Chain c only ever fires at times congruent to c modulo the chain
	// count: every delay is a positive multiple of chains, so no two
	// chains can tie — which makes the global delivery order a pure
	// function of time, identical for every shard layout.
	delay := Time(ev.chains * (1 + (ev.dst+ev.hops)%5))
	e.PostEvent(delay, ev)
}

// seedHops starts `chains` hop chains over `peers` peers; log may be nil.
func seedHops(s *Sharded, chains, peers, hops int, log *[]hopRecord) (counts []uint32, sumAt []Time) {
	counts = make([]uint32, peers)
	sumAt = make([]Time, peers)
	for c := 0; c < chains; c++ {
		ev := &hopEvent{
			chain: c, chains: chains, peers: peers,
			dst: c % peers, hops: hops,
			counts: counts, sumAt: sumAt, log: log,
		}
		s.Engine(0).PostEvent(Time(chains+c), ev)
	}
	return counts, sumAt
}

// TestShardedShardCountInvariance is the determinism lock of the sharded
// runner: for a tie-free workload, the global delivery order (time, chain,
// peer) is identical for 1, 2, 3 and 4 shards, sequentially drained.
func TestShardedShardCountInvariance(t *testing.T) {
	const chains, peers, hops = 8, 24, 40
	var want []hopRecord
	for _, shards := range []int{1, 2, 3, 4} {
		var log []hopRecord
		s := NewSharded(ShardedOptions{
			Shards:  shards,
			ShardOf: func(peer int) int { return peer },
		})
		seedHops(s, chains, peers, hops, &log)
		n := s.Run(0)
		if n != uint64(chains*(hops+1)) {
			t.Fatalf("shards=%d delivered %d events, want %d", shards, n, chains*(hops+1))
		}
		if s.Processed() != n {
			t.Fatalf("shards=%d Processed()=%d, delivered=%d", shards, s.Processed(), n)
		}
		if shards == 1 {
			want = log
			continue
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("shards=%d delivery order diverged from single-shard run", shards)
		}
	}
}

// TestShardedParallelMatchesSequential locks the parallel drain: with
// shard-confined state, goroutine-per-shard epochs produce exactly the
// per-peer outcome of the sequential drain.
func TestShardedParallelMatchesSequential(t *testing.T) {
	const chains, peers, hops = 12, 32, 60
	run := func(parallel bool) ([]uint32, []Time) {
		s := NewSharded(ShardedOptions{
			Shards:   4,
			ShardOf:  func(peer int) int { return peer },
			Parallel: parallel,
		})
		counts, sumAt := seedHops(s, chains, peers, hops, nil)
		s.Run(0)
		return counts, sumAt
	}
	seqCounts, seqSum := run(false)
	parCounts, parSum := run(true)
	if !reflect.DeepEqual(seqCounts, parCounts) || !reflect.DeepEqual(seqSum, parSum) {
		t.Fatal("parallel epoch drain diverged from sequential drain")
	}
}

// TestShardedSingleShardDelegates locks the Shards:1 fallback: the sharded
// wrapper around one engine delivers the same order as a bare Engine.
func TestShardedSingleShardDelegates(t *testing.T) {
	const chains, peers, hops = 4, 8, 10
	var bare []hopRecord
	{
		e := NewEngine()
		counts := make([]uint32, peers)
		sumAt := make([]Time, peers)
		for c := 0; c < chains; c++ {
			e.PostEvent(Time(chains+c), &hopEvent{
				chain: c, chains: chains, peers: peers, dst: c % peers, hops: hops,
				counts: counts, sumAt: sumAt, log: &bare,
			})
		}
		e.Run(0)
	}
	var wrapped []hopRecord
	s := NewSharded(ShardedOptions{Shards: 1})
	seedHops(s, chains, peers, hops, &wrapped)
	s.Run(0)
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatal("single-shard sharded run diverged from bare engine")
	}
}

// mailProbe is a destined event recording its delivery order.
type mailProbe struct {
	dst int
	tag string
	log *[]string
}

func (m *mailProbe) EventDst() int { return m.dst }
func (m *mailProbe) Fire(e *Engine) {
	*m.log = append(*m.log, fmt.Sprintf("%s@%d", m.tag, e.Now()))
}

// TestShardedMailboxOrdering locks the deterministic merge: same-instant
// cross-shard deliveries order by (source shard, source sequence), not by
// drain interleaving.
func TestShardedMailboxOrdering(t *testing.T) {
	var log []string
	s := NewSharded(ShardedOptions{
		Shards:  3,
		ShardOf: func(peer int) int { return peer },
	})
	// Shards 1 and 2 each send two events to peer 0 (shard 0) at the same
	// instant. Posting on shard i's engine routes through its outbox.
	s.Engine(2).PostEvent(5, &mailProbe{dst: 0, tag: "s2a", log: &log})
	s.Engine(1).PostEvent(5, &mailProbe{dst: 0, tag: "s1a", log: &log})
	s.Engine(2).PostEvent(5, &mailProbe{dst: 0, tag: "s2b", log: &log})
	s.Engine(1).PostEvent(5, &mailProbe{dst: 0, tag: "s1b", log: &log})
	if s.Len() != 4 {
		t.Fatalf("Len() = %d before run, want 4 mailbox items", s.Len())
	}
	s.Run(0)
	want := []string{"s1a@5", "s1b@5", "s2a@5", "s2b@5"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("mailbox order = %v, want %v", log, want)
	}
	if s.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", s.Now())
	}
}

// TestShardedObserverAndBudget exercises SetObserver plus the maxEvents and
// deadline paths of the epoch loop.
func TestShardedObserverAndBudget(t *testing.T) {
	s := NewSharded(ShardedOptions{Shards: 2, ShardOf: func(p int) int { return p }})
	var seen []string
	s.SetObserver(func(at Time, ev Event) { seen = append(seen, EventName(ev)) })
	var log []string
	s.Engine(0).PostEvent(10, &mailProbe{dst: 1, tag: "a", log: &log})
	s.Engine(0).PostEvent(20, &mailProbe{dst: 0, tag: "b", log: &log})
	s.Engine(0).PostEvent(30, &mailProbe{dst: 1, tag: "c", log: &log})
	if n := s.RunUntil(Time(25), 0); n != 2 {
		t.Fatalf("deadline run delivered %d, want 2", n)
	}
	if s.Now() != 25 {
		t.Fatalf("Now() after deadline = %v, want 25", s.Now())
	}
	if n := s.Run(1); n != 1 {
		t.Fatalf("budget run delivered %d, want 1", n)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d events, want 3", len(seen))
	}
	if !reflect.DeepEqual(log, []string{"a@10", "b@20", "c@30"}) {
		t.Fatalf("log = %v", log)
	}
}

// TestShardedHorizon checks that the horizon drops both locally queued and
// mailbox-routed events.
func TestShardedHorizon(t *testing.T) {
	var log []string
	s := NewSharded(ShardedOptions{Shards: 2, ShardOf: func(p int) int { return p }})
	s.SetHorizon(15)
	s.Engine(0).PostEvent(10, &mailProbe{dst: 1, tag: "keep", log: &log})
	s.Engine(0).PostEvent(20, &mailProbe{dst: 1, tag: "drop", log: &log})
	s.Engine(0).PostEvent(20, &mailProbe{dst: 0, tag: "droplocal", log: &log})
	if n := s.Run(0); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if !reflect.DeepEqual(log, []string{"keep@10"}) {
		t.Fatalf("log = %v", log)
	}
}

// stopEvent stops the delivering engine mid-run.
type stopEvent struct{ dst int }

func (e *stopEvent) EventDst() int    { return e.dst }
func (e *stopEvent) Fire(eng *Engine) { eng.Stop() }

// TestShardedStopPropagates locks the Engine.Stop contract under the
// sharded loop: an event stopping its shard's engine ends the whole run at
// the epoch boundary instead of being silently swallowed.
func TestShardedStopPropagates(t *testing.T) {
	var log []string
	s := NewSharded(ShardedOptions{Shards: 2, ShardOf: func(p int) int { return p }})
	s.Engine(0).PostEvent(10, &mailProbe{dst: 0, tag: "before", log: &log})
	s.Engine(0).PostEvent(20, &stopEvent{dst: 1})
	s.Engine(0).PostEvent(30, &mailProbe{dst: 0, tag: "after", log: &log})
	n := s.Run(0)
	if n != 2 {
		t.Fatalf("delivered %d events before stop, want 2", n)
	}
	if len(log) != 1 || log[0] != "before@10" {
		t.Fatalf("log = %v", log)
	}
	// The stopped run can be resumed by calling Run again.
	if n := s.Run(0); n != 1 || len(log) != 2 {
		t.Fatalf("resume delivered %d (log %v)", n, log)
	}
}

// crossPoster is an undestined event that, when fired, posts its probe
// with the given delay — from inside an epoch, so a cross-shard probe due
// before another shard's clock exercises the barrier-violation path.
type crossPoster struct {
	delay Time
	probe *mailProbe
}

func (p *crossPoster) Fire(e *Engine) { e.PostEvent(p.delay, p.probe) }

// TestShardedBarrierViolationError locks the graceful-degradation contract:
// a Lookahead wider than the workload's minimum cross-shard delay ends the
// run with an error naming the event time and the shards involved, instead
// of panicking.
func TestShardedBarrierViolationError(t *testing.T) {
	var log []string
	s := NewSharded(ShardedOptions{
		Shards:    2,
		ShardOf:   func(peer int) int { return peer },
		Lookahead: 100, // far wider than the 10-tick cross-shard delay below
	})
	// Shard 0 posts a cross-shard probe at t=10+10=20; shard 1's local
	// event at t=50 drains in the same (lookahead-widened) epoch, so the
	// probe arrives behind shard 1's clock at the next flush.
	s.Engine(0).PostEvent(10, &crossPoster{delay: 10, probe: &mailProbe{dst: 1, tag: "late", log: &log}})
	s.Engine(1).PostEvent(50, &mailProbe{dst: 1, tag: "local", log: &log})
	n, err := s.Run(0), s.Err()
	if err == nil {
		t.Fatal("barrier violation did not surface as an error")
	}
	if !errors.Is(err, ErrPast) {
		t.Fatalf("error does not wrap ErrPast: %v", err)
	}
	for _, want := range []string{"t=20", "from shard 0 to shard 1", "lookahead 100"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if n != 2 {
		t.Fatalf("delivered %d events before the violation, want 2", n)
	}
	// The late probe was never delivered.
	if !reflect.DeepEqual(log, []string{"local@50"}) {
		t.Fatalf("log = %v", log)
	}
}

// TestShardedCancelledCounter: the epoch loop finds each epoch's start by
// discarding cancelled entries from the head of every shard's queue, and
// those discards count in Cancelled() exactly as a plain engine's do.
func TestShardedCancelledCounter(t *testing.T) {
	var log []string
	s := NewSharded(ShardedOptions{Shards: 2, ShardOf: func(p int) int { return p }})
	for shard := 0; shard < 2; shard++ {
		e := s.Engine(shard)
		for i := 0; i < 3; i++ {
			// Two cancelled entries ahead of each live one.
			schedule(e, Time(10*i+1), &mailProbe{dst: shard, tag: "dead", log: &log}).Cancel()
			schedule(e, Time(10*i+2), &mailProbe{dst: shard, tag: "dead", log: &log}).Cancel()
			schedule(e, Time(10*i+3), &mailProbe{dst: shard, tag: "live", log: &log})
		}
	}
	if n := s.Run(0); n != 6 {
		t.Fatalf("delivered %d events, want 6", n)
	}
	for _, entry := range log {
		if !strings.HasPrefix(entry, "live@") {
			t.Fatalf("cancelled event fired: %v", log)
		}
	}
	for shard := 0; shard < 2; shard++ {
		if got := s.Engine(shard).Cancelled(); got != 6 {
			t.Fatalf("shard %d Cancelled() = %d, want 6", shard, got)
		}
	}
}

// TestShardedEpochHook locks the merge point the protocol layer builds on:
// the hook runs after every epoch with all shard drains joined — so it
// always observes a log no event is concurrently appending to — and once
// more covers the final epoch, on the multi-shard loop and the single-shard
// delegate alike.
func TestShardedEpochHook(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		s := NewSharded(ShardedOptions{
			Shards:  shards,
			ShardOf: func(peer int) int { return peer },
		})
		var log []hopRecord
		seedHops(s, 3, 6, 8, &log)
		var sizes []int
		s.SetEpochHook(func() { sizes = append(sizes, len(log)) })
		s.Run(0)
		if len(sizes) == 0 {
			t.Fatalf("shards=%d: epoch hook never ran", shards)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] < sizes[i-1] {
				t.Fatalf("shards=%d: hook observations not monotonic: %v", shards, sizes)
			}
		}
		if last := sizes[len(sizes)-1]; last != len(log) {
			t.Fatalf("shards=%d: final hook saw %d deliveries, run produced %d", shards, last, len(log))
		}
	}
}

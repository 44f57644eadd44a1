package sim

import (
	"fmt"
	"testing"
)

// BenchmarkQueueMixed measures heap behaviour under a realistic mixed
// horizon: many events at staggered deadlines.
func BenchmarkQueueMixed(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PostEvent(Time(i%1000)*Millisecond, anonEvent{})
		if i%1000 == 999 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// BenchmarkTimerCancel measures schedule+cancel churn (retransmission
// timers that usually do not fire).
func BenchmarkTimerCancel(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		schedule(e, Second, anonEvent{}).Cancel()
		if i%4096 == 4095 {
			e.Drain()
		}
	}
}

// BenchmarkPostEvent measures raw event throughput: post+deliver of one
// chained pooled event, the simulator's innermost loop.
func BenchmarkPostEvent(b *testing.B) {
	e := NewEngine()
	ev := &benchChainEvent{remaining: b.N}
	e.PostEvent(Millisecond, ev)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}

type benchChainEvent struct{ remaining int }

func (ev *benchChainEvent) Fire(e *Engine) {
	if ev.remaining > 0 {
		ev.remaining--
		e.PostEvent(Millisecond, ev)
	}
}

// benchShardEvent is the sharded-throughput workload: a chain of destined
// events that mostly stays inside its shard, crossing a shard boundary on
// every 16th hop with a delay above the lookahead. spin models per-event
// protocol work so the parallel drain has something to overlap.
type benchShardEvent struct {
	dst       int
	peers     int
	shards    int
	remaining *int64
	sink      uint64
}

func (ev *benchShardEvent) EventDst() int { return ev.dst }

func (ev *benchShardEvent) Fire(e *Engine) {
	x := uint64(ev.dst + 1)
	for i := 0; i < 300; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
	}
	ev.sink = x
	n := *ev.remaining - 1
	*ev.remaining = n
	if n <= 0 {
		return
	}
	if int(n)%16 == 0 {
		// Cross-shard hop: land on the next shard, beyond the lookahead.
		ev.dst = (ev.dst + ev.peers/ev.shards) % ev.peers
		e.PostEvent(2*Millisecond, ev)
		return
	}
	e.PostEvent(Millisecond, ev)
}

// BenchmarkShardedEvents measures events/sec of the sharded loop at 1, 2
// and 4 shards with parallel epoch drains: per-shard chains with a bounded
// cross-shard hop rate, the shape a per-locality protocol partition
// produces. shards=1 is the sequential baseline.
func BenchmarkShardedEvents(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const peers = 64
			s := NewSharded(ShardedOptions{
				Shards:    shards,
				ShardOf:   func(p int) int { return p * shards / peers },
				Parallel:  shards > 1,
				Lookahead: Millisecond / 2,
			})
			// 16 chains per shard share each epoch, so a parallel drain
			// has a full batch of per-event work to overlap.
			chains := shards * 16
			per := make([]int64, chains)
			for c := 0; c < chains; c++ {
				per[c] = int64(b.N / chains)
				if per[c] == 0 {
					per[c] = 1
				}
				s.Engine(0).PostEvent(Millisecond, &benchShardEvent{
					dst: c * peers / chains, peers: peers, shards: shards, remaining: &per[c],
				})
			}
			b.ResetTimer()
			s.Run(0)
		})
	}
}

// benchQueue is the surface BenchmarkQueuePushPop drives: the engine's
// queue and the binary-heap oracle both have it.
type benchQueue interface {
	push(qent)
	pop() (qent, bool)
}

// BenchmarkQueuePushPop measures one push plus one pop on the two queue
// shapes a protocol run produces, for the engine's 4-ary heap and for the
// test-only binary heap kept as its oracle. "dense" is a standing queue of
// 4096 near-clustered timestamps with periodic far-future timers and
// interleaved push/pop (Locaware at 20 000 peers); "sparse-burst" is
// sparseBurst — a handful of standing timers, then a flood of ≈1400
// link-latency deliveries, repeated (Flooding at the paper's arrival rate).
func BenchmarkQueuePushPop(b *testing.B) {
	xorshift := func() func(mod int64) int64 {
		x := uint64(0x9e3779b97f4a7c15)
		return func(mod int64) int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x % uint64(mod))
		}
	}
	dense := func(b *testing.B, q benchQueue) {
		const depth = 4096
		var seq uint64
		var now Time
		next := xorshift()
		push := func() {
			at := now + Time(next(2000))
			if next(50) == 0 {
				at = now + 30*Second + Time(next(int64(Second)))
			}
			q.push(qent{at: at, seq: seq})
			seq++
		}
		for i := 0; i < depth; i++ {
			push()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push()
			e, _ := q.pop()
			now = e.at
		}
	}
	sparse := func(b *testing.B, q benchQueue) {
		var seq uint64
		// One query is 1402 push+pop pairs.
		sparseBurst(b.N/1402+1, xorshift(),
			func(at Time) {
				q.push(qent{at: at, seq: seq})
				seq++
			},
			func() (Time, bool) {
				e, ok := q.pop()
				return e.at, ok
			})
	}
	for _, shape := range []struct {
		name string
		run  func(*testing.B, benchQueue)
	}{{"dense", dense}, {"sparse-burst", sparse}} {
		b.Run(shape.name+"/quad", func(b *testing.B) { shape.run(b, &eventQueue{}) })
		b.Run(shape.name+"/binary-oracle", func(b *testing.B) { shape.run(b, &heapQueue{}) })
	}
}

// BenchmarkRNGStream measures substream derivation cost.
func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.StreamN("peer", i&1023)
	}
}

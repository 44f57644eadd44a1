package sim

import (
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

// benchQueue is the surface BenchmarkQueuePushPop drives: the engine's
// two-tier queue, its far tier alone and the binary-heap oracle all have it.
type benchQueue interface {
	push(qent)
	pop() (qent, bool)
}

// BenchmarkQueuePushPop measures one push plus one pop on four queue
// shapes, for the engine's two-tier queue, for its 4-ary heap alone (the
// single-tier queue it replaced) and for the test-only binary heap kept as
// its oracle:
//   - "dense" is a standing queue of 4096 timestamps within 2 ms, with
//     interleaved push/pop, beside a fixed 81 timers 30 s out that never
//     come due (Locaware at 20 000 peers, its link delays squeezed into two
//     or three buckets, its finalize timers one in 50 entries);
//   - "sparse-burst" is sparseBurst: a handful of standing timers, then a
//     flood of ≈1400 link-latency deliveries, repeated (Flooding at the
//     paper's arrival rate);
//   - "clustered" pushes 4096 entries inside one bucket width in random
//     order, then pops them all: the ring's worst case, each push a walk
//     of its bucket's sorted list;
//   - "far" is a standing queue of 4096 timers all beyond the near window,
//     so the ring only costs its tier test.
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
	const depth = 4096
	// standing keeps depth entries queued, each push drawn by at from the
	// clock, the last popped time.
	standing := func(b *testing.B, q benchQueue, at func(now Time) Time) {
		var seq uint64
		var now Time
		push := func() {
			q.push(qent{at: at(now), seq: seq})
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
	dense := func(b *testing.B, q benchQueue) {
		next := xorshift()
		// The timers are bounded: pushed one in 50 but never popped, they
		// would crowd out the near entries as b.N grows.
		timers := 0
		standing(b, q, func(now Time) Time {
			if timers < depth/50 && next(50) == 0 {
				timers++
				return now + 30*Second + Time(next(int64(Second)))
			}
			return now + Time(next(2000))
		})
	}
	far := func(b *testing.B, q benchQueue) {
		next := xorshift()
		standing(b, q, func(now Time) Time { return now + nearWindow + Time(next(int64(30*Second))) })
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
	clustered := func(b *testing.B, q benchQueue) {
		const batch = 4096
		next := xorshift()
		var seq uint64
		var bucket Time
		for done := 0; done < b.N; done += batch {
			for i := 0; i < batch; i++ {
				q.push(qent{at: bucket + Time(next(int64(bucketWidth))), seq: seq})
				seq++
			}
			for i := 0; i < batch; i++ {
				q.pop()
			}
			bucket += bucketWidth
		}
	}
	for _, shape := range []struct {
		name string
		run  func(*testing.B, benchQueue)
	}{{"dense", dense}, {"sparse-burst", sparse}, {"clustered", clustered}, {"far", far}} {
		b.Run(shape.name+"/two-tier", func(b *testing.B) { shape.run(b, &eventQueue{}) })
		b.Run(shape.name+"/quad-heap", func(b *testing.B) { shape.run(b, &quadHeap{}) })
		b.Run(shape.name+"/binary-oracle", func(b *testing.B) { shape.run(b, &heapQueue{}) })
	}
}

// BenchmarkRNGStream measures substream derivation cost.
func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Stream("peer")
	}
}

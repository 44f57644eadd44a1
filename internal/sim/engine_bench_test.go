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
		_ = r.Stream("peer")
	}
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stream runs Stream under a watchdog in the test goroutine: a deadlock
// ends the binary naming Stream in seconds, and this file sorts before
// core_test.go, whose tests reach Stream through RunGrid.
func stream[T any](n, workers int, fn func(i int) T, consume func(i int, v T)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		Stream(n, workers, fn, consume)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Its stuck goroutines would hang every later test.
		panic(fmt.Sprintf("Stream(%d jobs, %d workers) did not return in 10 s: it deadlocked", n, workers))
	}
}

func TestWorkersClamping(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, c := range []struct{ requested, jobs, want int }{
		{0, 100, min(cpus, 100)}, {-2, 100, min(cpus, 100)}, {0, 1, 1}, {-2, 1, 1},
		{1, 100, 1}, {5, 100, 5}, {8, 3, 3}, {3, 3, 3},
	} {
		if got := clampWorkers(c.requested, c.jobs); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

func TestStreamDeliversInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0, 256} { // 256: more workers than jobs
		var seen []int
		stream(200, workers, func(i int) int { return i * 3 }, func(i, v int) {
			if v != i*3 {
				t.Errorf("workers=%d: consume(%d, %d)", workers, i, v)
			}
			seen = append(seen, i)
		})
		if len(seen) != 200 {
			t.Fatalf("workers=%d: consumed %d of 200", workers, len(seen))
		}
		for i, idx := range seen {
			if idx != i {
				t.Fatalf("workers=%d: delivery %d carried index %d, want strict index order", workers, i, idx)
			}
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	called := false
	stream(0, 4, func(i int) int { return i }, func(int, int) { called = true })
	stream(-1, 4, func(i int) int { return i }, func(int, int) { called = true })
	if called {
		t.Fatal("consume called for empty job set")
	}
}

// TestStreamRunsEveryJobExactlyOnce floods the pool with many tiny jobs;
// under -race this also catches unsynchronised completion.
func TestStreamRunsEveryJobExactlyOnce(t *testing.T) {
	var calls [2000]int32
	delivered := 0
	stream(len(calls), 16, func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	}, func(int, struct{}) { delivered++ })
	if delivered != len(calls) {
		t.Fatalf("delivered %d of %d", delivered, len(calls))
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

// TestStreamSlowHead makes job 0 the slowest of the batch; the dispatch
// window must bound the reorder buffer without deadlocking, and delivery
// must still start at index 0. No job beyond the window starts before job
// 0 is delivered.
func TestStreamSlowHead(t *testing.T) {
	const workers, window = 8, 16
	var done atomic.Int32
	var beyond atomic.Bool // a job past the window has started
	next := 0
	stream(100, workers, func(i int) int {
		if i >= window {
			beyond.Store(true)
		}
		if i == 0 {
			// Busy-wait until every other windowed job has finished,
			// forcing reordering pressure: while job 0 blocks delivery,
			// only the other window-1 jobs can run.
			for done.Load() < window-1 {
				runtime.Gosched()
			}
		}
		done.Add(1)
		return i
	}, func(i, v int) {
		if i != next || v != i {
			t.Errorf("delivery %d carried (%d, %d)", next, i, v)
		}
		if i == 0 && beyond.Load() {
			t.Errorf("a job past the window of %d started before job 0 was delivered", window)
		}
		next++
	})
	if next != 100 {
		t.Fatalf("consumed %d of 100", next)
	}
}

// TestStreamLastJobFinishesFirst forces the completion order to be the
// exact reverse of the index order — the last job finishes first, the
// first job finishes last — and asserts delivery is still strictly
// index-ordered: the reorder buffer parks every early finisher until its
// index is next.
func TestStreamLastJobFinishesFirst(t *testing.T) {
	const n = 8
	// finished[i] closes when job i completes; job i waits for job i+1, so
	// completion order is n-1, n-2, ..., 0. All n jobs fit inside the
	// 2×workers dispatch window, so every job is running concurrently and
	// the chain cannot deadlock.
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var completionOrder []int32
	var mu sync.Mutex
	next := 0
	stream(n, n, func(i int) int {
		<-finished[i+1]
		mu.Lock()
		completionOrder = append(completionOrder, int32(i))
		mu.Unlock()
		close(finished[i])
		return i * 7
	}, func(i, v int) {
		if i != next || v != i*7 {
			t.Errorf("delivery %d carried (%d, %d)", next, i, v)
		}
		next++
	})
	if next != n {
		t.Fatalf("consumed %d of %d", next, n)
	}
	for k, idx := range completionOrder {
		if int(idx) != n-1-k {
			t.Fatalf("completion order %v; the test meant to reverse it", completionOrder)
		}
	}
}

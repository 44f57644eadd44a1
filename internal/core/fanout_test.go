package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersClamping(t *testing.T) {
	want := runtime.NumCPU()
	if want > 100 {
		want = 100
	}
	if got := clampWorkers(0, 100); got != want {
		t.Fatalf("clampWorkers(0, 100) = %d, want %d", got, want)
	}
	if got := clampWorkers(8, 3); got != 3 {
		t.Fatalf("clampWorkers(8, 3) = %d, want clamp to jobs", got)
	}
	if got := clampWorkers(-2, 1); got != 1 {
		t.Fatalf("clampWorkers(-2, 1) = %d", got)
	}
	if got := clampWorkers(5, 100); got != 5 {
		t.Fatalf("clampWorkers(5, 100) = %d", got)
	}
}

func TestStreamDeliversInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0, 256} { // 256: more workers than jobs
		var seen []int
		Stream(200, workers, func(i int) int { return i * 3 }, func(i, v int) {
			if v != i*3 {
				t.Fatalf("workers=%d: consume(%d, %d)", workers, i, v)
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
	Stream(0, 4, func(i int) int { return i }, func(int, int) { called = true })
	Stream(-1, 4, func(i int) int { return i }, func(int, int) { called = true })
	if called {
		t.Fatal("consume called for empty job set")
	}
}

// TestStreamRunsEveryJobExactlyOnce floods the pool with many tiny jobs;
// under -race this also catches unsynchronised completion.
func TestStreamRunsEveryJobExactlyOnce(t *testing.T) {
	var calls [2000]int32
	delivered := 0
	Stream(len(calls), 16, func(i int) struct{} {
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
// must still start at index 0.
func TestStreamSlowHead(t *testing.T) {
	var done int32
	next := 0
	Stream(100, 8, func(i int) int {
		if i == 0 {
			// Busy-wait until later jobs have finished, forcing reordering
			// pressure. The threshold must stay below the dispatch window
			// (2×8 outstanding jobs): while job 0 blocks delivery, only the
			// other 15 windowed jobs can complete.
			for atomic.LoadInt32(&done) < 10 {
				runtime.Gosched()
			}
		}
		atomic.AddInt32(&done, 1)
		return i
	}, func(i, v int) {
		if i != next || v != i {
			t.Fatalf("delivery %d carried (%d, %d)", next, i, v)
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
	Stream(n, n, func(i int) int {
		<-finished[i+1]
		mu.Lock()
		completionOrder = append(completionOrder, int32(i))
		mu.Unlock()
		close(finished[i])
		return i * 7
	}, func(i, v int) {
		if i != next || v != i*7 {
			t.Fatalf("delivery %d carried (%d, %d)", next, i, v)
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

package core

// This file is the deterministic parallel-execution substrate of the
// experiment harness. Replicated simulation trials are embarrassingly
// parallel — every trial owns an isolated engine, world and RNG streams —
// so its only job is to fan index-addressed work out across a bounded
// worker pool while keeping results bit-for-bit independent of scheduling:
// results are delivered by index, so the output order is the input order
// no matter which worker finishes first.
//
// # The Stream dispatch-window contract
//
// Stream delivers results in strict index order for any worker count and
// any completion order — including the pathological one where the last
// dispatched job finishes first. Its memory bound comes from a dispatch
// window of 2×workers outstanding jobs: a job is dispatched only while
// fewer than 2×workers jobs are dispatched-but-unconsumed, and a slot is
// released only when a result is delivered. Because dispatch is in index
// order, the lowest undelivered index is always among the dispatched jobs,
// so the pipeline cannot deadlock, and at most 2×workers results exist at
// once (in flight plus parked in the reorder buffer). Workloads whose jobs
// block on one another are outside the contract unless every dependency
// chain fits inside one window (see TestStreamLastJobFinishesFirst).

import (
	"runtime"
	"sync"
)

// clampWorkers resolves a requested worker count against a job count:
// requested <= 0 means one worker per CPU, and the result is clamped to
// [1, jobs] so no goroutine ever sits idle.
func clampWorkers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Stream runs fn(i) for every i in [0, n) across at most workers goroutines
// and delivers each result to consume(i, v) on the calling goroutine in
// strict index order — the same order a sequential loop would produce, for
// any worker count. It never materialises the full result slice: a consumed
// result can be folded into an aggregate and dropped, so a campaign of
// thousands of jobs holds O(workers) results in memory instead of O(n).
// Dispatch is windowed to 2×workers outstanding jobs, which bounds the
// reorder buffer even when job 0 is the slowest of the batch. workers <= 0
// selects runtime.NumCPU(); one worker takes the same path, running its
// jobs one at a time on one goroutine, in index order.
func Stream[T any](n, workers int, fn func(i int) T, consume func(i int, v T)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	type item struct {
		i int
		v T
	}
	var (
		jobs    = make(chan int)
		results = make(chan item, w)
		// window caps dispatched-but-unconsumed jobs: the dispatch-window
		// contract above.
		window = make(chan struct{}, 2*w)
		wg     sync.WaitGroup
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- item{i, fn(i)}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			window <- struct{}{}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	// Reorder buffer: park early finishers until their index is next.
	pending := make(map[int]T, 2*w)
	next := 0
	for it := range results {
		pending[it.i] = it.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			consume(next, v)
			next++
			<-window
		}
	}
}

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
	"cmp"
	"runtime"
)

// clampWorkers resolves a requested worker count against a positive job
// count: requested <= 0 means one worker per CPU, and the result is at
// most jobs so no goroutine ever sits idle.
func clampWorkers(requested, jobs int) int {
	return min(cmp.Or(max(requested, 0), runtime.NumCPU()), jobs)
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
//
// The workers are the only goroutines Stream starts: the calling goroutine
// dispatches between results. Closing jobs on return ends the workers, each
// past its last fn call once every result is in.
func Stream[T any](n, workers int, fn func(i int) T, consume func(i int, v T)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	window := 2 * w
	type item struct {
		i  int
		v  T
		ok bool // a parked result not yet consumed
	}
	// Each channel holds a whole window of outstanding jobs: no send blocks.
	jobs := make(chan int, window)
	results := make(chan item, window)
	defer close(jobs)
	for range w {
		go func() {
			for i := range jobs {
				results <- item{i, fn(i), true}
			}
		}()
	}
	// Reorder buffer: result i parks in slot i % window until i is next;
	// the outstanding indexes span less than a window, so none collide.
	parked := make([]item, window)
	sent := 0
	for next := 0; next < n; {
		for ; sent < n && sent < next+window; sent++ {
			jobs <- sent
		}
		it := <-results
		parked[it.i%window] = it
		for slot := &parked[next%window]; slot.ok; slot = &parked[next%window] {
			consume(next, slot.v)
			*slot = item{}
			next++
		}
	}
}

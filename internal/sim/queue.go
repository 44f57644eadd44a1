package sim

import "math/bits"

// The engine's pending-event store is one 4-ary min-heap whose entries
// carry the event itself: (at, seq, ev). Four children per node halve the
// depth of a binary heap and keep a node's children on adjacent cache
// lines, which is what a pop's sift-down pays for. A full group of four
// children is settled by a branch-free tournament (earlier): which sibling
// is least depends on the data, so a compare-and-branch scan mispredicts
// about once per level.
//
// Ordering contract: pops come out in strictly increasing (at, seq). seq is
// the engine's scheduling sequence, so same-instant events are FIFO. The
// oracle test runs this queue beside an independent binary heap on
// randomized push/pop streams.

// qent is one queued event: its total-order key plus the event to fire.
type qent struct {
	at  Time
	seq uint64
	ev  Event
}

// qentLess is the queue's total order: (at, seq) ascending. seq values are
// unique per engine, so the order is strict.
func qentLess(a, b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// earlier returns whichever of slots i and j of g holds the earlier
// (at, seq), without a branch: the borrow out of the 128-bit subtraction
// g[i] - g[j] (seq the low word, at the high) is 1 exactly when g[i] comes
// first. Queued times are never negative (PostEventAt refuses the past and
// the clock starts at zero), so the unsigned compare of at is the signed one.
func earlier(g *[heapArity]qent, i, j int) int {
	_, borrow := bits.Sub64(g[i].seq, g[j].seq, 0)
	_, borrow = bits.Sub64(uint64(g[i].at), uint64(g[j].at), borrow)
	return j ^ (i^j)&-int(borrow)
}

// heapArity is the heap's branching factor.
const heapArity = 4

type eventQueue struct {
	ents []qent
}

// Len returns the number of queued entries.
func (q *eventQueue) Len() int { return len(q.ents) }

// push inserts e.
func (q *eventQueue) push(e qent) {
	q.ents = append(q.ents, e)
	ents := q.ents
	i := len(ents) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !qentLess(e, ents[parent]) {
			break
		}
		ents[i] = ents[parent]
		i = parent
	}
	ents[i] = e
}

// peek returns the minimum entry without removing it.
func (q *eventQueue) peek() (qent, bool) {
	if len(q.ents) == 0 {
		return qent{}, false
	}
	return q.ents[0], true
}

// pop removes and returns the minimum entry.
func (q *eventQueue) pop() (qent, bool) {
	n := len(q.ents) - 1
	if n < 0 {
		return qent{}, false
	}
	top, last := q.ents[0], q.ents[n]
	// The vacated tail slot must not keep its event reachable.
	q.ents[n].ev = nil
	q.ents = q.ents[:n]
	if n == 0 {
		return top, true
	}
	// Sift the former tail down from the root, moving the smallest child up
	// into the hole at each level.
	ents := q.ents
	i := 0
	for {
		child := heapArity*i + 1
		if child >= n {
			break
		}
		least := child
		if child+heapArity <= n {
			g := (*[heapArity]qent)(ents[child:])
			least += earlier(g, earlier(g, 0, 1), earlier(g, 2, 3))
		} else {
			for c := child + 1; c < n; c++ {
				if qentLess(ents[c], ents[least]) {
					least = c
				}
			}
		}
		if !qentLess(ents[least], last) {
			break
		}
		ents[i] = ents[least]
		i = least
	}
	ents[i] = last
	return top, true
}

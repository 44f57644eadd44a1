package sim

import "math/bits"

// The engine's pending events sit in two tiers, split by how far ahead of
// the last popped instant they are due:
//
//   - The near tier is a ring of ringLen time buckets, each bucketWidth
//     wide, that covers the nearWindow after the bucket of the last pop. A
//     bucket is an (at, seq)-sorted circular list of nodes carved from a
//     slab of doubling chunks, so a node is never copied, and a bitmap of
//     the occupied buckets finds the next one in at most ringWords word
//     reads. Nearly every event is a message due one link delay ahead,
//     which the window covers: a push links a node into a list of a few,
//     and a pop unlinks the least head, with no sift through a heap.
//   - The far tier is a 4-ary min-heap (quadHeap) of everything else:
//     finalize timers, arrivals, gossip rounds, and links slowed by a
//     latency factor past the window.
//
// A pop takes the lesser (at, seq) of the first occupied bucket's head and
// the heap's top. Nothing migrates between the tiers and nothing is ever
// rebuilt or resized: the window is a constant, so which tier an entry
// joins depends only on its time and the last popped instant, never on
// what else is queued.
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

const (
	// bucketShift makes a near bucket bucketWidth = 2^10 µs = 1.024 ms wide.
	bucketShift = 10
	bucketWidth = Time(1) << bucketShift
	// ringLen buckets make the near window, 512 × 1.024 ms = 524.288 ms
	// from the start of the last popped instant's bucket. The default
	// latency model's one-way delays are 5–276 ms (half its 10–500 ms RTT,
	// with jitter) and the protocol adds 1 ms of processing, so every
	// healthy link delivery is near; a one-way delay past the window would
	// take a jitter draw more than ten standard deviations out. The ring's
	// 512 tail pointers are 4 KB per engine, which a campaign of short runs
	// pays once per run.
	ringLen    = 1 << 9
	nearWindow = ringLen * bucketWidth
	ringWords  = ringLen / 64
	// firstChunk is the node count of the slab's first chunk, each later
	// chunk twice the one before, and the far heap's first capacity.
	firstChunk = 64
)

// qnode is a near-tier entry: a link of its bucket's circular list.
type qnode struct {
	qent
	next *qnode
}

type eventQueue struct {
	far quadHeap
	// head is the near tier's least node, nil while the tier is empty.
	head *qnode
	// tails[i] is the last node of bucket i's circular list (its next is
	// the bucket's head), nil while the bucket is empty. Bucket number b
	// (at >> bucketShift) sits at index b % ringLen.
	tails [ringLen]*qnode
	// occupied has bit i set while bucket i holds a node.
	occupied [ringWords]uint64
	// base is the bucket number of the last popped instant: the near tier
	// takes bucket numbers base to base+ringLen-1. first is the bucket
	// number of head, valid while head is not nil.
	base, first int64
	near        int
	// free lists the nodes not in use; chunk is the node count of the
	// newest chunk, twice that of the one before.
	free  *qnode
	chunk int
}

// Len returns the number of queued entries.
func (q *eventQueue) Len() int { return q.near + len(q.far.ents) }

// push inserts e. A near entry is linked into its bucket's list in
// (at, seq) order: after the tail when it is not earlier, which an
// ascending seq makes the common case.
func (q *eventQueue) push(e qent) {
	b := int64(e.at) >> bucketShift
	n := q.free
	if uint64(b-q.base) >= ringLen || n == nil {
		q.pushSlow(e)
		return
	}
	q.free = n.next
	n.qent = e
	i := uint64(b) % ringLen
	switch t := q.tails[i]; {
	case t == nil:
		n.next = n
		q.tails[i] = n
		q.occupied[i/64] |= 1 << (i % 64)
		if q.head == nil || b < q.first {
			q.first, q.head = b, n
		}
	case !qentLess(e, t.qent):
		n.next = t.next
		t.next = n
		q.tails[i] = n
	default:
		p := t
		for qentLess(p.next.qent, e) {
			p = p.next
		}
		n.next = p.next
		p.next = n
		if p == t && b == q.first {
			q.head = n
		}
	}
	q.near++
}

// pushSlow pushes a far entry onto the heap, or carves the next chunk of
// nodes, twice the last, onto the free list and pushes again.
// The heap's first push makes room for firstChunk entries at once: growing
// by append from empty would take seven allocations.
func (q *eventQueue) pushSlow(e qent) {
	if uint64(int64(e.at)>>bucketShift-q.base) >= ringLen {
		if q.far.ents == nil {
			q.far.ents = make([]qent, 0, firstChunk)
		}
		q.far.push(e)
		return
	}
	q.chunk = max(2*q.chunk, firstChunk)
	slab := make([]qnode, q.chunk)
	for i := range slab[1:] {
		slab[i].next = &slab[i+1]
	}
	q.free = &slab[0]
	q.push(e)
}

// peek returns the queue's least entry, in place, or nil when the queue is
// empty. The entry is the queue's own: a pop reuses its storage.
func (q *eventQueue) peek() *qent {
	var m *qent
	if len(q.far.ents) > 0 {
		m = &q.far.ents[0]
	}
	if h := q.head; h != nil && (m == nil || h.at < m.at || h.at == m.at && h.seq < m.seq) {
		return &h.qent
	}
	return m
}

// pop removes and returns the minimum entry. A near entry's node goes back
// to the free list; a bucket it empties leaves the bitmap, and first moves
// to the next occupied bucket.
func (q *eventQueue) pop() (qent, bool) {
	h := q.head
	if h == nil || len(q.far.ents) > 0 && qentLess(q.far.ents[0], h.qent) {
		e, ok := q.far.pop()
		if ok {
			q.base = int64(e.at) >> bucketShift
		}
		return e, ok
	}
	q.base = q.first
	q.near--
	i := uint64(q.first) % ringLen
	if t := q.tails[i]; h != t {
		t.next = h.next
		q.head = h.next
	} else {
		q.tails[i] = nil
		q.occupied[i/64] &^= 1 << (i % 64)
		q.head = nil
		if q.near > 0 {
			q.advance(i)
		}
	}
	e := h.qent
	// A freed node must not keep its event reachable.
	h.ev = nil
	h.next = q.free
	q.free = h
	return e, true
}

// advance moves first and head on from index i, a bucket just emptied, to
// the next occupied bucket; some bucket is occupied. Every queued node is
// due within the window after bucket i, so the first bit set after i,
// wrapping round the ring, is the least.
func (q *eventQueue) advance(i uint64) {
	from := (i + 1) % ringLen
	w := from / 64
	m := q.occupied[w] >> (from % 64) << (from % 64)
	for m == 0 {
		w = (w + 1) % ringWords
		m = q.occupied[w]
	}
	j := w*64 + uint64(bits.TrailingZeros64(m))
	q.first += int64(1 + (j-from)%ringLen)
	q.head = q.tails[j].next
}

// quadHeap is the far tier: one 4-ary min-heap whose entries carry the
// event itself. Four children per node halve the depth of a binary heap
// and keep a node's children on adjacent cache lines, which is what a
// pop's sift-down pays for. A full group of four children is settled by a
// branch-free tournament (earlier): which sibling is least depends on the
// data, so a compare-and-branch scan mispredicts about once per level.
type quadHeap struct {
	ents []qent
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

// push inserts e.
func (h *quadHeap) push(e qent) {
	h.ents = append(h.ents, e)
	ents := h.ents
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

// pop removes and returns the minimum entry.
func (h *quadHeap) pop() (qent, bool) {
	n := len(h.ents) - 1
	if n < 0 {
		return qent{}, false
	}
	top, last := h.ents[0], h.ents[n]
	// The vacated tail slot must not keep its event reachable.
	h.ents[n].ev = nil
	h.ents = h.ents[:n]
	if n == 0 {
		return top, true
	}
	// Sift the former tail down from the root, moving the smallest child up
	// into the hole at each level.
	ents := h.ents
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

package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// heapQueue is a textbook binary min-heap over qent, kept test-only as the
// independent ordering oracle: the engine's queue must produce the
// byte-identical (at, seq) pop sequence on any workload.
type heapQueue struct {
	ents []qent
}

func (h *heapQueue) Len() int { return len(h.ents) }

func (h *heapQueue) push(e qent) {
	h.ents = append(h.ents, e)
	i := len(h.ents) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !qentLess(h.ents[i], h.ents[parent]) {
			break
		}
		h.ents[i], h.ents[parent] = h.ents[parent], h.ents[i]
		i = parent
	}
}

func (h *heapQueue) pop() (qent, bool) {
	if len(h.ents) == 0 {
		return qent{}, false
	}
	top := h.ents[0]
	last := len(h.ents) - 1
	h.ents[0] = h.ents[last]
	h.ents = h.ents[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.ents) && qentLess(h.ents[l], h.ents[smallest]) {
			smallest = l
		}
		if r < len(h.ents) && qentLess(h.ents[r], h.ents[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top, true
		}
		h.ents[i], h.ents[smallest] = h.ents[smallest], h.ents[i]
		i = smallest
	}
}

// oracleWorld drives the engine's queue and the heap oracle through the
// same stream of operations.
type oracleWorld struct {
	t         *testing.T
	q         eventQueue
	heap      heapQueue
	seq       uint64
	now       Time // engine clock: pops are monotone, pushes never precede it
	delivered int
}

func newOracleWorld(t *testing.T) *oracleWorld { return &oracleWorld{t: t} }

func (w *oracleWorld) push(at Time) {
	if at < w.now {
		at = w.now
	}
	e := qent{at: at, seq: w.seq, ev: anonEvent{}}
	w.seq++
	w.q.push(e)
	w.heap.push(e)
}

// pop advances both queues to their next delivery and asserts the (at, seq)
// keys match. Returns false when both queues are exhausted.
func (w *oracleWorld) pop() bool {
	var peeked qent
	if p := w.q.peek(); p != nil {
		peeked = *p
	}
	got, gotOK := w.q.pop()
	if got.at != peeked.at || got.seq != peeked.seq {
		w.t.Fatalf("delivery %d: peek saw (%d,%d), pop took (%d,%d)", w.delivered, peeked.at, peeked.seq, got.at, got.seq)
	}
	heapEnt, heapOK := w.heap.pop()
	if gotOK != heapOK {
		w.t.Fatalf("after %d deliveries: queue ok=%v oracle ok=%v", w.delivered, gotOK, heapOK)
	}
	if !gotOK {
		return false
	}
	if got.at != heapEnt.at || got.seq != heapEnt.seq {
		w.t.Fatalf("delivery %d diverged: queue (%d,%d) vs oracle (%d,%d)",
			w.delivered, got.at, got.seq, heapEnt.at, heapEnt.seq)
	}
	if got.at < w.now {
		w.t.Fatalf("delivery %d went back in time: %d after clock %d", w.delivered, got.at, w.now)
	}
	w.now = got.at
	w.delivered++
	return true
}

// TestQueueOracleRandomized locks the ordering contract: on randomized
// push/pop streams — same-instant FIFO ties, zero delays, far-future
// events, bursts and droughts — the engine's queue delivers the
// byte-identical (at, seq) sequence as the binary-heap oracle.
func TestQueueOracleRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newOracleWorld(t)
		var lastAt Time
		for op := 0; op < 20000; op++ {
			switch k := r.Intn(100); {
			case k < 55: // push
				var at Time
				switch c := r.Intn(10); {
				case c < 4:
					at = w.now + Time(r.Intn(2000)) // near cluster
				case c < 6:
					at = w.now // zero delay
				case c < 8:
					at = lastAt // same-instant FIFO tie
				case c < 9:
					at = w.now + Time(r.Intn(int(30*Second))) // mid-range
				default:
					at = w.now + 30*Second + Time(r.Intn(int(Minute))) // far future
				}
				if at < w.now {
					at = w.now
				}
				lastAt = at
				w.push(at)
			default: // deliver
				w.pop()
			}
		}
		for w.pop() {
		}
		if got := w.q.Len(); got != 0 {
			t.Fatalf("seed %d: queue holds %d entries after exhaustion", seed, got)
		}
		if w.delivered == 0 {
			t.Fatalf("seed %d: oracle run delivered nothing", seed)
		}
	}
}

// TestQueueOracleBurstDrain covers growth and full drains: bursts of
// thousands of near-instant entries with a far-future sprinkling, drained to
// empty every cycle.
func TestQueueOracleBurstDrain(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	w := newOracleWorld(t)
	for cycle := 0; cycle < 20; cycle++ {
		n := 200 + r.Intn(3000)
		for i := 0; i < n; i++ {
			at := w.now + Time(r.Intn(1000))
			if r.Intn(20) == 0 {
				at = w.now + Time(30*Second) + Time(r.Intn(int(Second)))
			}
			w.push(at)
		}
		for w.pop() {
		}
		if w.q.Len() != 0 || w.heap.Len() != 0 {
			t.Fatalf("cycle %d: queues not drained (queue %d, oracle %d)", cycle, w.q.Len(), w.heap.Len())
		}
	}
}

// sparseBurst drives a queue through Flooding at the paper's arrival rate,
// the shape a queue that sizes itself from what is queued when it drains
// gets wrong: a query arrives every 0.6 s, arms a finalize timer 3.6 s out
// (so a handful stand in the queue, 0.6 s apart) and floods ≈1400
// deliveries over link latencies of 5–185 ms, each delivery forwarding to
// four more peers while the query's budget lasts. Between bursts the queue
// drains to the timers. The event kind rides in the two low bits of the
// timestamp, so the driver needs nothing from the queue but push and pop.
func sparseBurst(queries int, next func(mod int64) int64, push func(at Time), pop func() (Time, bool)) {
	const (
		timer = iota
		arrival
		delivery
		gap   = 600 * Millisecond
		burst = 1400
	)
	budget := 0
	push(arrival)
	for {
		now, ok := pop()
		if !ok {
			return
		}
		fan := 0
		switch now & 3 {
		case arrival:
			if queries--; queries > 0 {
				push((now+gap)&^3 | arrival)
			}
			push((now+6*gap)&^3 | timer)
			budget += burst
			fan = 8
		case delivery:
			fan = 4
		}
		for ; fan > 0 && budget > 0; fan, budget = fan-1, budget-1 {
			push((now+5*Millisecond+Time(next(int64(180*Millisecond))))&^3 | delivery)
		}
	}
}

// TestQueueOracleSparseBurst runs the sparse-burst shape against the
// oracle.
func TestQueueOracleSparseBurst(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := newOracleWorld(t)
	const queries = 25
	sparseBurst(queries, r.Int63n, w.push, func() (Time, bool) {
		ok := w.pop()
		return w.now, ok
	})
	if want := queries * (1400 + 2); w.delivered != want {
		t.Fatalf("delivered %d entries, want %d", w.delivered, want)
	}
	if w.q.Len() != 0 || w.heap.Len() != 0 {
		t.Fatalf("queues not drained (queue %d, oracle %d)", w.q.Len(), w.heap.Len())
	}
}

// TestQueuePopsInSortOrder holds the tournament to a sort: each stream is
// pushed with its sequence numbers shuffled, so seq order is not push
// order, and must pop in (at, seq) order. The streams are heavy at ties
// (seq alone decides), every heap size from 1 to 9 (each partial last
// group of siblings), times of 0, and times and sequence numbers at the top
// of their ranges, where the 128-bit borrow runs through both words.
func TestQueuePopsInSortOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(name string, ats []Time, seqBase uint64) {
		t.Helper()
		var q eventQueue
		want := make([]qent, len(ats))
		for i, s := range r.Perm(len(ats)) {
			want[i] = qent{at: ats[i], seq: seqBase + uint64(s)}
			q.push(want[i])
		}
		slices.SortFunc(want, func(a, b qent) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
		for i, w := range want {
			if got, ok := q.pop(); !ok || got.at != w.at || got.seq != w.seq {
				t.Fatalf("%s: pop %d of %d = (%d,%d) ok=%v, want (%d,%d)", name, i, len(want), got.at, got.seq, ok, w.at, w.seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("%s: %d entries left after %d pops", name, q.Len(), len(want))
		}
	}
	draw := func(n int, at func() Time) []Time {
		ats := make([]Time, n)
		for i := range ats {
			ats[i] = at()
		}
		return ats
	}
	for trial := 0; trial < 20; trial++ {
		check("ties", draw(2000, func() Time { return Time(r.Intn(3)) * Second }), 0)
		check("zero", draw(500, func() Time { return 0 }), 0)
		check("zero or one", draw(500, func() Time { return Time(r.Intn(2)) }), 0)
		check("top", draw(500, func() Time { return math.MaxInt64 - Time(r.Intn(3)) }), math.MaxUint64-500)
		check("bottom and top", draw(500, func() Time { return Time(r.Intn(2)) * math.MaxInt64 }), math.MaxUint64-500)
	}
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 500; trial++ {
			check("small", draw(n, func() Time { return Time(r.Intn(3)) }), 0)
		}
	}
}

// tiers reports where the queue holds its entries: near in the ring, far in
// the heap.
func (w *oracleWorld) tiers() (near, far int) { return w.q.near, len(w.q.far.ents) }

// TestQueueOracleWindowEdges pushes at the near window's last microsecond,
// which joins the ring, and at the first beyond it, which joins the heap,
// among random near pushes and pops; the window runs from the start of the
// last popped instant's bucket.
func TestQueueOracleWindowEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := newOracleWorld(t)
	for round := 0; round < 500; round++ {
		beyond := (w.now>>bucketShift)<<bucketShift + nearWindow
		near, far := w.tiers()
		w.push(beyond - 1)
		w.push(beyond)
		if n, f := w.tiers(); n != near+1 || f != far+1 {
			t.Fatalf("round %d: window ends at %d, pushes there made near %d→%d, far %d→%d", round, beyond, near, n, far, f)
		}
		for i := r.Intn(8); i > 0; i-- {
			w.push(w.now + Time(r.Intn(int(nearWindow))))
		}
		for i := r.Intn(10); i > 0; i-- {
			w.pop()
		}
	}
	for w.pop() {
	}
}

// TestQueueOracleEqualTimesAcrossTiers queues a far entry and then, once
// the clock has moved its time into the window, a near entry at the same
// instant: the far one has the smaller seq and pops first.
func TestQueueOracleEqualTimesAcrossTiers(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w := newOracleWorld(t)
	for round := 0; round < 300; round++ {
		at := w.now + nearWindow + Time(r.Intn(int(bucketWidth)))
		_, far := w.tiers()
		w.push(at)
		if _, f := w.tiers(); f != far+1 {
			t.Fatalf("round %d: push at %d from %d stayed near", round, at, w.now)
		}
		w.push(at - nearWindow/2)
		for w.now < at-nearWindow/2 {
			w.pop()
		}
		near, _ := w.tiers()
		w.push(at)
		if n, _ := w.tiers(); n != near+1 {
			t.Fatalf("round %d: push at %d from %d went far", round, at, w.now)
		}
	}
	for w.pop() {
	}
	// The queue orders by key, not by push order: pushed after the far
	// entry at the same instant, a near entry with the smaller seq pops
	// first.
	var q eventQueue
	q.push(qent{at: nearWindow, seq: 9})
	q.push(qent{at: bucketWidth, seq: 0})
	q.pop()
	q.push(qent{at: nearWindow, seq: 1})
	if q.near != 1 || len(q.far.ents) != 1 {
		t.Fatalf("%d near and %d far entries, want one of each", q.near, len(q.far.ents))
	}
	for _, seq := range []uint64{1, 9} {
		if p := q.peek(); p.seq != seq {
			t.Fatalf("peek saw seq %d, want %d", p.seq, seq)
		}
		if e, _ := q.pop(); e.seq != seq {
			t.Fatalf("popped seq %d, want %d", e.seq, seq)
		}
	}
}

// TestNearWindowCoversLinkDelays: a message sent at the end of a bucket
// over the default model's longest link (276 ms one way) plus the 1 ms
// processing delay still lands in the ring.
func TestNearWindowCoversLinkDelays(t *testing.T) {
	if longest := bucketWidth - 1 + 277*Millisecond; longest >= nearWindow {
		t.Fatalf("a %v delivery falls outside the %v near window", longest, nearWindow)
	}
}

// TestQueueAllocatesPerChunk: the slab grows by chunks of 64, 128, 256
// nodes and so on, and the heap's first push makes room for 64 entries,
// so k pushes allocate about log2(k/64) times, not once per push.
func TestQueueAllocatesPerChunk(t *testing.T) {
	for _, c := range []struct {
		near, far int
		allocs    float64
	}{{64, 0, 1}, {65, 0, 2}, {192, 0, 2}, {193, 0, 3}, {0, 64, 1}, {0, 65, 2}} {
		got := testing.AllocsPerRun(5, func() {
			var q eventQueue
			for i := 0; i < c.near; i++ {
				q.push(qent{at: Time(i), seq: uint64(i)})
			}
			for i := 0; i < c.far; i++ {
				q.push(qent{at: nearWindow + Time(i), seq: uint64(i)})
			}
		})
		if got != c.allocs {
			t.Errorf("%d near and %d far pushes: %v allocations, want %v", c.near, c.far, got, c.allocs)
		}
	}
}

// TestQueueOracleAllFar runs a stream whose every delay is beyond the near
// window: the ring stays empty and the heap alone orders the pops.
func TestQueueOracleAllFar(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	w := newOracleWorld(t)
	for op := 0; op < 20000; op++ {
		if r.Intn(100) < 55 {
			w.push(w.now + nearWindow + Time(r.Intn(int(Minute))))
		} else {
			w.pop()
		}
		if near, _ := w.tiers(); near != 0 {
			t.Fatalf("op %d: %d entries near", op, near)
		}
	}
	for w.pop() {
	}
	if w.delivered == 0 {
		t.Fatal("delivered nothing")
	}
}

// seqEvent is an event that carries its scheduling sequence number.
type seqEvent uint64

func (seqEvent) Fire(*Engine) {}

// TestRunUntilDeadlineMatchesOracle posts through the engine after
// RunUntil's deadline has moved the clock past the last pop, so that a
// delay the window covers from the clock can lie beyond it from the last
// popped instant, which the queue's tiers are measured from; the
// deliveries must still come in the oracle's order.
func TestRunUntilDeadlineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	e := NewEngine()
	var oracle heapQueue
	post := func(at Time) {
		seq := e.Scheduled()
		if err := e.PostEventAt(at, seqEvent(seq)); err != nil {
			t.Fatal(err)
		}
		oracle.push(qent{at: at, seq: seq})
	}
	delivered := 0
	e.SetObserver(func(at Time, ev Event) {
		want, _ := oracle.pop()
		if got := uint64(ev.(seqEvent)); at != want.at || got != want.seq {
			t.Fatalf("delivery %d: (%d,%d), oracle (%d,%d)", delivered, at, got, want.at, want.seq)
		}
		delivered++
	})
	farAfterJump := 0
	for round := 0; round < 200; round++ {
		for i := 1 + r.Intn(20); i > 0; i-- {
			post(e.Now() + Time(r.Intn(int(nearWindow))))
		}
		e.RunUntil(e.Now()+Time(r.Intn(int(2*nearWindow))), 0)
		// The clock now sits at the deadline when the queue ran dry of
		// earlier events; delays up to the window from here straddle the
		// window measured from the last pop.
		far := len(e.queue.far.ents)
		for i := 1 + r.Intn(20); i > 0; i-- {
			post(e.Now() + Time(r.Intn(int(nearWindow))))
		}
		if len(e.queue.far.ents) > far {
			farAfterJump++
		}
	}
	e.Run(0)
	if oracle.Len() != 0 || e.queue.Len() != 0 {
		t.Fatalf("%d oracle and %d queued entries left", oracle.Len(), e.queue.Len())
	}
	if farAfterJump == 0 {
		t.Fatal("no post after a deadline went to the far tier")
	}
}

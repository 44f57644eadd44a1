package trace

import (
	"container/heap"
	"sort"

	"github.com/p2prepro/locaware/internal/sim"
)

// Policy selects which query traces a FlightRecorder retains after
// finalize. The zero value keeps nothing; enable at least one criterion. A
// SlowestN at least the run's query count keeps every query: the heap never
// fills, so it never evicts.
type Policy struct {
	// KeepFailed retains every query finalised without an answer.
	KeepFailed bool
	// MinHops retains queries whose flood reached at least this depth
	// (maximum forward-chain length observed). 0 disables the criterion.
	MinHops int
	// SlowestN retains the N answered-or-failed queries with the highest
	// completion latency, maintained in a min-heap so a million-query run
	// costs O(N) memory. 0 disables the criterion.
	SlowestN int
	// MaxEventsPerQuery bounds the in-flight buffer per query; beyond it
	// the earliest events are kept and the overflow counted in
	// QueryTrace.Dropped. <= 0 means 256.
	MaxEventsPerQuery int
}

// maxKeep caps the unconditional retentions (KeepFailed / MinHops) so a
// pathological run cannot grow without bound; later matches are discarded.
const maxKeep = 64

// maxEvents returns the effective per-query event cap.
func (p Policy) maxEvents() int {
	if p.MaxEventsPerQuery > 0 {
		return p.MaxEventsPerQuery
	}
	return 256
}

// QueryTrace is one retained query's causal record.
type QueryTrace struct {
	// Query is the query id.
	Query uint64
	// Submit is the submission timestamp.
	Submit sim.Time
	// Latency is completion latency: download time minus submit for
	// answered queries, finalize time minus submit for failed ones.
	Latency sim.Time
	// Hops is the deepest forward chain the query reached.
	Hops int
	// Failed reports the query finalised without an answer.
	Failed bool
	// Why names the retention criteria that kept the trace
	// ("failed", "hops", "slowest", comma-joined).
	Why string
	// Events are the query's trace events in merged stream order.
	Events []Event
	// Dropped counts events discarded by the per-query buffer cap.
	Dropped int
}

// Tree reconstructs the trace's span tree. processing is the per-hop
// protocol processing delay used for latency attribution. The recorder's
// outcome fields overlay the reconstruction: they are computed from the
// full event stream, while Events may have lost its tail to the
// per-query buffer cap (a truncated failed query would otherwise render
// as "ok" with the latency of its last retained event).
func (t *QueryTrace) Tree(processing sim.Time) *SpanTree {
	tree := BuildSpanTree(t.Query, t.Events, processing)
	if tree == nil {
		return nil
	}
	tree.Failed = t.Failed
	tree.Latency = t.Latency
	return tree
}

// queryBuf holds one in-flight query's events until finalize.
type queryBuf struct {
	events []Event
	// depth is each forward's chain length by span id (0 for the root and
	// point spans): a forward is one deeper than the span it hangs under.
	depth    []int32
	maxDepth int
	origin   int // submitting peer
	submit   sim.Time
	doneAt   sim.Time
	hasDone  bool
	failed   bool
	dropped  int
}

func (b *queryBuf) reset() {
	b.events = b.events[:0]
	b.depth = b.depth[:0]
	b.maxDepth, b.dropped = 0, 0
	b.origin = -1
	b.submit, b.doneAt = 0, 0
	b.hasDone, b.failed = false, false
}

// FlightRecorder is a tail-sampling Tracer: it buffers each query's events
// only while the query is in flight, and on QueryFinalize keeps the trace
// iff it matches the retention policy — so the p99.9 outliers of a huge run
// are caught in constant memory. A Network emits to it directly from its
// engine's goroutine, so Emit needs no locking.
//
// Buffers are pooled: a finalized query's buffer (and, when a slowest-N
// heap entry is evicted, its event slice) is recycled, so steady-state
// recording allocates only retained data.
type FlightRecorder struct {
	pol    Policy
	active map[uint64]*queryBuf
	// bufs recycles queryBuf structs. With a long finalize horizon every
	// in-flight query holds a buffer, so fresh buffers are the common case;
	// evSlab batches their initial event windows the way the pool batches
	// the structs (capacity-capped three-index carves, so append past a
	// window reallocates independently instead of clobbering a neighbour).
	bufs   sim.Pool[queryBuf]
	evSlab []Event
	spare  [][]Event // event slices recovered from evicted heap entries
	kept   []*QueryTrace
	slow   slowHeap
	phases []Event
}

// NewFlightRecorder returns a recorder with the given retention policy.
func NewFlightRecorder(pol Policy) *FlightRecorder {
	return &FlightRecorder{pol: pol, active: make(map[uint64]*queryBuf)}
}

// Emit implements Tracer.
func (r *FlightRecorder) Emit(e Event) {
	switch e.Kind {
	case PhaseEnter:
		if len(r.phases) < 4096 {
			r.phases = append(r.phases, e)
		}
		return
	case QuerySubmit:
		b := r.acquire()
		b.submit = e.At
		b.origin = e.Peer
		b.events = append(b.events, e)
		r.active[e.Query] = b
		return
	case QueryFinalize:
		b := r.active[e.Query]
		if b == nil {
			return
		}
		delete(r.active, e.Query)
		r.finish(e, b)
		return
	}
	b := r.active[e.Query]
	if b == nil {
		// Straggler for a query submitted before the recorder attached or
		// already finalized; ignore.
		return
	}
	switch e.Kind {
	case QueryForward:
		d := int32(1)
		if int(e.Parent) < len(b.depth) {
			d += b.depth[e.Parent]
		}
		for int(e.Span) >= len(b.depth) {
			b.depth = append(b.depth, 0)
		}
		b.depth[e.Span] = d
		b.maxDepth = max(b.maxDepth, int(d))
	case DownloadComplete:
		b.doneAt, b.hasDone = e.At, true
	case StorageHit:
		// A hit on the submitter's own storage answers the query with no
		// download; without this the trace would fall back to time-to-finalize
		// and an instantly-answered query would rank as a slowest-N outlier.
		// Remote storage hits complete via DownloadComplete instead.
		if e.Peer == b.origin {
			b.doneAt, b.hasDone = e.At, true
		}
	case QueryFailed:
		b.failed = true
	}
	if len(b.events) >= r.pol.maxEvents() {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// finish applies the retention policy to a finalized query.
func (r *FlightRecorder) finish(fin Event, b *queryBuf) {
	lat := fin.At - b.submit
	if b.hasDone {
		lat = b.doneAt - b.submit
	}
	why := ""
	if b.failed && r.pol.KeepFailed {
		why = "failed"
	}
	if r.pol.MinHops > 0 && b.maxDepth >= r.pol.MinHops {
		if why != "" {
			why += ",hops"
		} else {
			why = "hops"
		}
	}
	if why != "" {
		if len(r.kept) >= maxKeep {
			r.release(b)
			return
		}
		r.kept = append(r.kept, r.seal(b, lat, why))
		return
	}
	if r.pol.SlowestN > 0 {
		if len(r.slow) < r.pol.SlowestN {
			heap.Push(&r.slow, r.seal(b, lat, "slowest"))
			return
		}
		if slowLess(r.slow[0].Latency, r.slow[0].Query, lat, fin.Query) {
			t := r.seal(b, lat, "slowest")
			r.spare = append(r.spare, r.slow[0].Events[:0])
			r.slow[0] = t
			heap.Fix(&r.slow, 0)
			return
		}
	}
	r.release(b)
}

// seal converts a finalized buffer into a retained QueryTrace, handing the
// event slice's ownership to the trace and recycling the rest of the
// buffer.
func (r *FlightRecorder) seal(b *queryBuf, lat sim.Time, why string) *QueryTrace {
	q := b.events[0].Query
	t := &QueryTrace{
		Query:   q,
		Submit:  b.submit,
		Latency: lat,
		Hops:    b.maxDepth,
		Failed:  b.failed,
		Why:     why,
		Events:  b.events,
		Dropped: b.dropped,
	}
	b.events = nil
	r.release(b)
	return t
}

func (r *FlightRecorder) acquire() *queryBuf {
	b := r.bufs.Get()
	if b.events != nil {
		return b // recycled, with its window
	}
	if n := len(r.spare); n > 0 {
		b.events = r.spare[n-1]
		r.spare = r.spare[:n-1]
	} else {
		// Pre-sized for a typical flood: growth chains per in-flight query
		// would dominate (buffers recycle only after finalize, 30 virtual
		// seconds out, so most queries pay the initial window).
		if len(r.evSlab) < 64 {
			r.evSlab = make([]Event, 64*64)
		}
		b.events = r.evSlab[0:0:64]
		r.evSlab = r.evSlab[64:]
	}
	return b
}

func (r *FlightRecorder) release(b *queryBuf) {
	if b.events == nil {
		if n := len(r.spare); n > 0 {
			b.events = r.spare[n-1]
			r.spare = r.spare[:n-1]
		}
	}
	b.reset()
	r.bufs.Put(b)
}

// Traces returns the retained traces, slowest first (ties broken by
// ascending query id). The order is deterministic.
func (r *FlightRecorder) Traces() []*QueryTrace {
	out := make([]*QueryTrace, 0, len(r.kept)+len(r.slow))
	out = append(out, r.kept...)
	out = append(out, r.slow...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		return out[i].Query < out[j].Query
	})
	return out
}

// Phases returns the scenario phase-entry events observed during the run.
func (r *FlightRecorder) Phases() []Event {
	out := make([]Event, len(r.phases))
	copy(out, r.phases)
	return out
}

// slowLess reports whether heap entry (aLat, aQ) ranks strictly below a
// candidate (lat, q): the candidate displaces the minimum iff it is
// strictly slower, or equally slow with a smaller query id (earlier
// queries win exact ties, keeping the selection deterministic).
func slowLess(aLat sim.Time, aQ uint64, lat sim.Time, q uint64) bool {
	if aLat != lat {
		return aLat < lat
	}
	return q < aQ
}

// slowHeap is a container/heap min-heap of retained traces keyed by
// (Latency, then descending Query), so the root is always the entry the
// next slower candidate evicts.
type slowHeap []*QueryTrace

func (h slowHeap) Len() int { return len(h) }

func (h slowHeap) Less(i, j int) bool {
	if h[i].Latency != h[j].Latency {
		return h[i].Latency < h[j].Latency
	}
	return h[i].Query > h[j].Query
}

func (h slowHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *slowHeap) Push(x any) { *h = append(*h, x.(*QueryTrace)) }

func (h *slowHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

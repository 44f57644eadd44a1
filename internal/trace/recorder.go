package trace

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/sim"
)

// Policy selects which query traces a FlightRecorder retains after
// finalize; a query matching any enabled criterion is kept. The zero value
// keeps nothing, and a SlowestN at least the run's query count keeps every
// query. core.Config.Validate refuses a negative count, naming it.
type Policy struct {
	KeepFailed bool // keep every query finalised without an answer
	MinHops    int  // keep queries whose deepest forward chain reaches this (0: off)
	SlowestN   int  // keep the N queries of highest completion latency (0: off)
	// MaxEventsPerQuery caps a query's buffer: the earliest events are kept,
	// the overflow counted in QueryTrace.Dropped. 0 means 256.
	MaxEventsPerQuery int
}

// maxKeep caps the unconditional retentions (KeepFailed / MinHops) so a
// pathological run cannot grow without bound; later matches are discarded.
const maxKeep = 64

// QueryTrace is one retained query's causal record.
type QueryTrace struct {
	Query uint64 // the query id, its 1-based submission sequence number
	// Latency is the download's time, or for a failed query the
	// finalize's, minus the submission's.
	Latency sim.Time
	Hops    int    // the deepest forward chain the query reached
	Failed  bool   // the query was finalised without an answer
	Why     string // the criteria that kept it: "failed", "hops", "slowest", comma-joined
	Events  []Event
	Dropped int // events the per-query cap, Policy.MaxEventsPerQuery, discarded

	processing sim.Time // the run's per-hop processing delay, for Tree
	recs       []Record // what Traces spells Events from
}

// Tree reconstructs the trace's span tree, splitting each closed hop's
// latency at the run's per-hop processing delay. The recorder's outcome
// fields overlay it: Events may have lost the tail that decided them to the
// per-query cap.
func (t *QueryTrace) Tree() *SpanTree {
	tree := BuildSpanTree(t.Query, t.Events, t.processing)
	if tree != nil {
		tree.Failed, tree.Latency = t.Failed, t.Latency
	}
	return tree
}

// Render formats the trace's span tree as an indented text timeline (see
// SpanTree.Render), or "" when its events hold no submission.
func (t *QueryTrace) Render() string {
	if tree := t.Tree(); tree != nil {
		return tree.Render()
	}
	return ""
}

// flight is one in-flight query's records, the submission first, and its
// running outcome.
type flight struct {
	recs               []Record
	hops, dropped      int
	doneAt             sim.Time
	done, failed, live bool
}

// FlightRecorder is a tail-sampling Tracer: it buffers each query's records
// while it is in flight and at QueryFinalize keeps the trace iff it matches
// the policy, so a huge run's outliers are caught in constant memory. The
// network numbers queries densely and finalizes each a fixed time after
// its submission: the queries in flight are the ids [base, next), each in
// its ring slot, whose buffers the next query there reuses. Only Traces
// spells Events, for the retained queries.
type FlightRecorder struct {
	pol        Policy
	maxEvents  int
	processing sim.Time
	ring       []flight // a power of two long
	base, next uint64
	recBlock   []Record // a fresh slot's first window is carved from it
	kept, slow []*QueryTrace
	phases     []Event
}

// NewFlightRecorder returns a recorder with the given retention policy; its
// traces carry processing, the run's per-hop processing delay, for Tree.
func NewFlightRecorder(pol Policy, processing sim.Time) *FlightRecorder {
	return &FlightRecorder{pol: pol, maxEvents: cmp.Or(pol.MaxEventsPerQuery, 256), processing: processing}
}

// Phase implements Tracer.
func (r *FlightRecorder) Phase(e Event) { r.phases = append(r.phases, e) }

// Emit implements Tracer. It ignores a submission that skips an id while
// queries are in flight, and a record of a query not in flight.
func (r *FlightRecorder) Emit(rec Record) {
	if rec.Kind == QuerySubmit {
		r.submit(rec)
		return
	}
	if rec.Query-r.base >= r.next-r.base {
		return
	}
	f := &r.ring[rec.Query&uint64(len(r.ring)-1)]
	if !f.live {
		return
	}
	switch rec.Kind {
	case QueryFinalize:
		f.live = false
		r.retain(rec, f)
		for r.base < r.next && !r.ring[r.base&uint64(len(r.ring)-1)].live {
			r.base++
		}
		return
	case QueryForward:
		f.hops = max(f.hops, int(rec.Hops))
	case DownloadComplete:
		f.doneAt, f.done = rec.At, true
	case StorageHit:
		// A hit on the submitter's own storage answers the query with no
		// download; a remote one completes by its DownloadComplete.
		if rec.Peer == f.recs[0].Peer {
			f.doneAt, f.done = rec.At, true
		}
	case QueryFailed:
		f.failed = true
	}
	if len(f.recs) >= r.maxEvents {
		f.dropped++
		return
	}
	f.recs = append(f.recs, rec)
}

// submit opens rec's query at the window's end, doubling the ring when it
// is full.
func (r *FlightRecorder) submit(rec Record) {
	if r.base == r.next {
		r.base, r.next = rec.Query, rec.Query
	}
	if rec.Query != r.next {
		return
	}
	if n := uint64(len(r.ring)); r.next-r.base == n {
		ring := make([]flight, max(2*n, 16))
		for q := r.base; q < r.next; q++ {
			ring[q&uint64(len(ring)-1)] = r.ring[q&(n-1)]
		}
		r.ring = ring
	}
	f := &r.ring[r.next&uint64(len(r.ring)-1)]
	if f.recs == nil {
		f.recs = sim.Carve(&r.recBlock, 64)
	}
	*f = flight{recs: append(f.recs[:0], rec), live: true}
	r.next++
}

// retain applies the retention policy to a finalized query.
func (r *FlightRecorder) retain(fin Record, f *flight) {
	lat := fin.At - f.recs[0].At
	if f.done {
		lat = f.doneAt - f.recs[0].At
	}
	// A kept trace takes the slot's records; the next query there carves
	// a fresh window.
	keep := func(why string) *QueryTrace {
		t := &QueryTrace{Query: fin.Query, Latency: lat, Hops: f.hops, Failed: f.failed, Why: why,
			Dropped: f.dropped, processing: r.processing, recs: f.recs}
		f.recs = nil
		return t
	}
	why := ""
	if f.failed && r.pol.KeepFailed {
		why = "failed,"
	}
	if r.pol.MinHops > 0 && f.hops >= r.pol.MinHops {
		why += "hops,"
	}
	switch {
	case why != "":
		if len(r.kept) < maxKeep {
			r.kept = append(r.kept, keep(strings.TrimSuffix(why, ",")))
		}
	case len(r.slow) < r.pol.SlowestN:
		r.slow = append(r.slow, keep("slowest"))
	case r.pol.SlowestN > 0:
		// A slower query displaces the fastest entry.
		m := 0
		for i, s := range r.slow {
			if slowLess(s, r.slow[m]) {
				m = i
			}
		}
		if t := (&QueryTrace{Query: fin.Query, Latency: lat}); slowLess(r.slow[m], t) {
			r.slow[m] = keep("slowest")
		}
	}
}

// slowLess reports whether a ranks strictly below b: it is faster, or as
// slow with a larger query id (the earlier query wins an exact tie).
func slowLess(a, b *QueryTrace) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Query > b.Query
}

// Traces returns the retained traces, slowest first (ties broken by
// ascending query id), their Events spelt. The order is deterministic.
func (r *FlightRecorder) Traces() []*QueryTrace {
	out := make([]*QueryTrace, 0, len(r.kept)+len(r.slow))
	out = append(append(out, r.kept...), r.slow...)
	sort.SliceStable(out, func(i, j int) bool { return slowLess(out[j], out[i]) })
	for _, t := range out {
		t.Events = slices.Grow(t.Events, len(t.recs)-len(t.Events))
		for _, rec := range t.recs[len(t.Events):] {
			t.Events = append(t.Events, rec.Event())
		}
	}
	return out
}

// Phases returns the scenario phase-entry events observed during the run.
func (r *FlightRecorder) Phases() []Event { return slices.Clone(r.phases) }

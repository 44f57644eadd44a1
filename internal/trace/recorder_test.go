package trace

import (
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/sim"
)

// emitQuery emits a minimal query lifecycle into r: submit at t0 on origin,
// a chain of depth forwards, each under the one before, then either a
// download at doneAt or a failure, and the finalize marker at finAt.
func emitQuery(r *FlightRecorder, q uint64, origin int32, t0 sim.Time, depth int, doneAt, finAt sim.Time, failed bool) {
	r.Emit(Record{At: t0, Kind: QuerySubmit, Query: q, Span: RootSpan, Peer: origin, From: -1})
	prev, span := origin, RootSpan
	for i := range int32(depth) {
		at := t0 + sim.Time(i+1)*sim.Millisecond
		r.Emit(Record{At: at, Kind: QueryForward, Query: q, Span: span + 1, Parent: span, Peer: prev + 100 + i, From: prev, Hops: i + 1})
		prev, span = prev+100+i, span+1
	}
	if failed {
		r.Emit(Record{At: finAt, Kind: QueryFailed, Query: q, Span: span + 1, Parent: RootSpan, Peer: origin, From: -1})
	} else if doneAt > 0 {
		r.Emit(Record{At: doneAt, Kind: DownloadComplete, Query: q, Span: span + 1, Parent: span, Peer: origin, From: -1})
	}
	r.Emit(Record{At: finAt, Kind: QueryFinalize, Query: q, Span: span + 2, Parent: RootSpan, Peer: origin, From: -1})
}

// inFlight is the recorder's count of open query ids.
func inFlight(r *FlightRecorder) uint64 { return r.next - r.base }

func TestFlightRecorderKeepFailed(t *testing.T) {
	r := NewFlightRecorder(Policy{KeepFailed: true}, sim.Millisecond)
	emitQuery(r, 1, 5, sim.Second, 2, 0, sim.Second+30*sim.Second, true)
	emitQuery(r, 2, 6, 2*sim.Second, 2, 2*sim.Second+200*sim.Millisecond, 2*sim.Second+30*sim.Second, false)
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Query != 1 || !tr.Failed || tr.Why != "failed" {
		t.Fatalf("trace = %+v", tr)
	}
	// A failed query's latency is time-to-finalize.
	if tr.Latency != 30*sim.Second {
		t.Fatalf("failed latency = %v, want 30s", tr.Latency)
	}
	if inFlight(r) != 0 {
		t.Fatalf("in-flight = %d after finalize", inFlight(r))
	}
}

func TestFlightRecorderMinHops(t *testing.T) {
	r := NewFlightRecorder(Policy{MinHops: 3}, sim.Millisecond)
	emitQuery(r, 1, 5, sim.Second, 2, sim.Second+sim.Millisecond*50, sim.Second+30*sim.Second, false)
	emitQuery(r, 2, 6, 2*sim.Second, 4, 2*sim.Second+sim.Millisecond*50, 2*sim.Second+30*sim.Second, false)
	traces := r.Traces()
	if len(traces) != 1 || traces[0].Query != 2 || traces[0].Hops != 4 || traces[0].Why != "hops" {
		t.Fatalf("traces = %+v", traces)
	}
}

// TestFlightRecorderSlowestN locks the min-heap sampling: only the N
// highest-latency queries survive, with strictly-slower (or equally slow,
// smaller id) candidates displacing the minimum, and Traces() returning
// them slowest-first.
func TestFlightRecorderSlowestN(t *testing.T) {
	r := NewFlightRecorder(Policy{SlowestN: 3}, sim.Millisecond)
	lat := []sim.Time{ // per query 1..6, in ms
		40 * sim.Millisecond,
		90 * sim.Millisecond,
		10 * sim.Millisecond,
		70 * sim.Millisecond,
		50 * sim.Millisecond,
		40 * sim.Millisecond, // ties query 1: earlier query must win
	}
	for i, l := range lat {
		t0 := sim.Time(i+1) * sim.Second
		emitQuery(r, uint64(i+1), int32(i), t0, 1, t0+l, t0+30*sim.Second, false)
	}
	traces := r.Traces()
	if len(traces) != 3 {
		t.Fatalf("kept %d traces, want 3", len(traces))
	}
	gotQ := [3]uint64{traces[0].Query, traces[1].Query, traces[2].Query}
	if gotQ != [3]uint64{2, 4, 5} {
		t.Fatalf("slowest-first order = %v, want [2 4 5]", gotQ)
	}
	for _, tr := range traces {
		if tr.Why != "slowest" {
			t.Fatalf("why = %q", tr.Why)
		}
	}
}

// TestFlightRecorderSlowestTie pins the eviction tie-break: an equally-slow
// later query must NOT displace an earlier one already in a full heap.
func TestFlightRecorderSlowestTie(t *testing.T) {
	r := NewFlightRecorder(Policy{SlowestN: 1}, sim.Millisecond)
	const l = 25 * sim.Millisecond
	emitQuery(r, 1, 0, sim.Second, 1, sim.Second+l, sim.Second+30*sim.Second, false)
	emitQuery(r, 2, 1, 2*sim.Second, 1, 2*sim.Second+l, 2*sim.Second+30*sim.Second, false)
	traces := r.Traces()
	if len(traces) != 1 || traces[0].Query != 1 {
		t.Fatalf("tie kept query %d, want 1", traces[0].Query)
	}
	// Query 4 is in flight while query 3 evicts query 1; then 4 finalizes
	// slower still, with only its submission, and evicts 3. A submission
	// that skips an id while queries are in flight is ignored.
	r.Emit(Record{At: 3 * sim.Second, Kind: QuerySubmit, Query: 3, Span: RootSpan, Peer: 3, From: -1})
	r.Emit(Record{At: 3 * sim.Second, Kind: QuerySubmit, Query: 4, Span: RootSpan, Peer: 2, From: -1})
	r.Emit(Record{At: 3 * sim.Second, Kind: QuerySubmit, Query: 6, Span: RootSpan, Peer: 6, From: -1})
	r.Emit(Record{At: 3*sim.Second + 2*l, Kind: DownloadComplete, Query: 3, Span: 2, Parent: RootSpan, Peer: 3, From: 7})
	r.Emit(Record{At: 33 * sim.Second, Kind: QueryFinalize, Query: 3, Span: 3, Parent: RootSpan, Peer: 3, From: -1})
	if traces = r.Traces(); len(traces) != 1 || traces[0].Query != 3 || inFlight(r) != 1 {
		t.Fatalf("kept %+v with %d in flight, want query 3 and query 4 in flight", traces, inFlight(r))
	}
	r.Emit(Record{At: 40 * sim.Second, Kind: QueryFinalize, Query: 4, Span: 2, Parent: RootSpan, Peer: 2, From: -1})
	r.Emit(Record{At: 40 * sim.Second, Kind: QueryFinalize, Query: 6, Span: 2, Parent: RootSpan, Peer: 6, From: -1})
	if traces = r.Traces(); len(traces) != 1 || traces[0].Query != 4 || len(traces[0].Events) != 1 || inFlight(r) != 0 {
		t.Fatalf("kept %+v, want query 4 with its submit", traces)
	}
}

// TestFlightRecorderWindow: the in-flight window grows past its first ring
// by doubling, a query finalized ahead of an older one waits for it before
// the window's start moves, and every query keeps its own records: a full
// ring drops a record of the id after its last, which shares the oldest
// query's slot.
func TestFlightRecorderWindow(t *testing.T) {
	r := NewFlightRecorder(Policy{SlowestN: 100}, sim.Millisecond)
	const n = 64
	for q := uint64(1); q <= n; q++ {
		r.Emit(Record{At: sim.Time(q), Kind: QuerySubmit, Query: q, Span: RootSpan, Peer: int32(q), From: -1})
		r.Emit(Record{At: sim.Time(q), Kind: QueryForward, Query: q, Span: 2, Parent: RootSpan, Peer: int32(q + 1), From: int32(q), Hops: 1})
	}
	r.Emit(Record{At: n, Kind: QueryForward, Query: n + 1, Span: 3, Parent: RootSpan, Peer: 0, From: n + 1})
	fin := func(q uint64) {
		r.Emit(Record{At: sim.Second + sim.Time(q), Kind: QueryFinalize, Query: q, Span: 3, Parent: RootSpan, Peer: int32(q), From: -1})
	}
	fin(2)
	if inFlight(r) != n || len(r.ring) != 64 {
		t.Fatalf("%d in flight in a ring of %d, want %d in 64", inFlight(r), len(r.ring), n)
	}
	fin(1)
	if inFlight(r) != n-2 {
		t.Fatalf("%d in flight after the two oldest finalized, want %d", inFlight(r), n-2)
	}
	for q := uint64(3); q <= n; q++ {
		fin(q)
	}
	traces := r.Traces()
	if len(traces) != n || inFlight(r) != 0 {
		t.Fatalf("kept %d traces with %d in flight, want %d and none", len(traces), inFlight(r), n)
	}
	for _, tr := range traces {
		if len(tr.Events) != 2 || tr.Events[1].Peer != int(tr.Query+1) || tr.Hops != 1 {
			t.Fatalf("query %d kept %+v", tr.Query, tr.Events)
		}
	}
}

// TestFlightRecorderLocalStorageHit locks the local-answer completion rule:
// a hit on the submitter's own storage ends the query then and there, so
// its latency is ~0, not the 30s time-to-finalize — without this every
// locally answered query would rank as a slowest-N outlier. A storage hit
// at a *remote* peer must not complete the query (its download does).
func TestFlightRecorderLocalStorageHit(t *testing.T) {
	r := NewFlightRecorder(Policy{SlowestN: 2}, sim.Millisecond)
	// Query 1: local storage hit at submit time.
	r.Emit(Record{At: sim.Second, Kind: QuerySubmit, Query: 1, Span: 1, Peer: 5, From: -1})
	r.Emit(Record{At: sim.Second, Kind: StorageHit, Query: 1, Span: 2, Parent: 1, Peer: 5, From: -1})
	r.Emit(Record{At: sim.Second + 30*sim.Second, Kind: QueryFinalize, Query: 1, Span: 3, Parent: 1, Peer: 5, From: -1})
	// Query 2: remote storage hit, download completes 80ms in.
	t0 := 2 * sim.Second
	r.Emit(Record{At: t0, Kind: QuerySubmit, Query: 2, Span: 1, Peer: 6, From: -1})
	r.Emit(Record{At: t0 + 10*sim.Millisecond, Kind: QueryForward, Query: 2, Span: 2, Parent: 1, Peer: 7, From: 6})
	r.Emit(Record{At: t0 + 30*sim.Millisecond, Kind: StorageHit, Query: 2, Span: 3, Parent: 2, Peer: 7, From: -1})
	r.Emit(Record{At: t0 + 80*sim.Millisecond, Kind: DownloadComplete, Query: 2, Span: 4, Parent: 3, Peer: 6, From: 7})
	r.Emit(Record{At: t0 + 30*sim.Second, Kind: QueryFinalize, Query: 2, Span: 5, Parent: 1, Peer: 6, From: -1})
	traces := r.Traces()
	if len(traces) != 2 {
		t.Fatalf("kept %d traces, want 2", len(traces))
	}
	// Slowest first: query 2 (80ms) then query 1 (0).
	if traces[0].Query != 2 || traces[0].Latency != 80*sim.Millisecond {
		t.Fatalf("remote-hit trace = q%d latency=%v, want q2 80ms", traces[0].Query, traces[0].Latency)
	}
	if traces[1].Query != 1 || traces[1].Latency != 0 {
		t.Fatalf("local-hit trace = q%d latency=%v, want q1 0", traces[1].Query, traces[1].Latency)
	}
}

// TestFlightRecorderMaxKeepOverflow: criteria retentions stop at maxKeep;
// the first maxKeep matches are kept and the overflow is discarded.
func TestFlightRecorderMaxKeepOverflow(t *testing.T) {
	r := NewFlightRecorder(Policy{KeepFailed: true}, sim.Millisecond)
	for q := uint64(1); q <= maxKeep+3; q++ {
		t0 := sim.Time(q) * sim.Second
		emitQuery(r, q, int32(q), t0, 1, 0, t0+30*sim.Second, true)
	}
	traces := r.Traces()
	if len(traces) != maxKeep {
		t.Fatalf("kept %d traces, want maxKeep=%d", len(traces), maxKeep)
	}
	for _, tr := range traces {
		if tr.Query > maxKeep {
			t.Fatalf("kept query %d, an overflow past the first %d", tr.Query, maxKeep)
		}
	}
	if inFlight(r) != 0 {
		t.Fatalf("%d overflowed buffers still in flight", inFlight(r))
	}
}

func TestFlightRecorderEventCap(t *testing.T) {
	if got := NewFlightRecorder(Policy{}, 0).maxEvents; got != 256 {
		t.Fatalf("an unset cap keeps %d events a query, want 256", got)
	}
	r := NewFlightRecorder(Policy{KeepFailed: true, MaxEventsPerQuery: 4}, sim.Millisecond)
	emitQuery(r, 1, 5, sim.Second, 10, 0, sim.Second+30*sim.Second, true)
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces", len(traces))
	}
	tr := traces[0]
	if len(tr.Events) != 4 {
		t.Fatalf("retained %d events, want cap 4", len(tr.Events))
	}
	// 12 lifecycle events total (submit + 10 forwards + failed; finalize is
	// consumed, not buffered), 4 kept.
	if tr.Dropped != 8 {
		t.Fatalf("dropped = %d, want 8", tr.Dropped)
	}
	// Hops still tracked past the cap: depth bookkeeping is not buffered.
	if tr.Hops != 10 {
		t.Fatalf("hops = %d, want 10", tr.Hops)
	}
	// The QueryFailed event was truncated away, but the tree must still
	// carry the recorder's authoritative outcome, not reconstruct a bogus
	// "ok" from the surviving prefix.
	tree := tr.Tree()
	if tree == nil || !tree.Failed {
		t.Fatalf("truncated failed query reconstructed as ok: %+v", tree)
	}
	if tree.Latency != tr.Latency {
		t.Fatalf("tree latency %s != recorder latency %s", tree.Latency, tr.Latency)
	}
}

// TestFlightRecorderWhyCombines checks a trace matching several criteria
// reports them all and is kept once.
func TestFlightRecorderWhyCombines(t *testing.T) {
	r := NewFlightRecorder(Policy{KeepFailed: true, MinHops: 1}, sim.Millisecond)
	emitQuery(r, 1, 5, sim.Second, 1, 0, sim.Second+30*sim.Second, true)
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	if traces[0].Why != "failed,hops" {
		t.Fatalf("why = %q", traces[0].Why)
	}
}

func TestFlightRecorderPhasesAndStragglers(t *testing.T) {
	r := NewFlightRecorder(Policy{KeepFailed: true}, sim.Millisecond)
	r.Phase(Event{At: sim.Second, Kind: PhaseEnter, Peer: -1, From: -1, Detail: "surge"})
	// Events for a query never submitted (e.g. in flight before attach).
	r.Emit(Record{At: sim.Second, Kind: QueryForward, Query: 9, Span: 2, Parent: 1, Peer: 1, From: 0})
	r.Emit(Record{At: 2 * sim.Second, Kind: QueryFinalize, Query: 9, Span: 3, Parent: 1, Peer: 0, From: -1})
	if ph := r.Phases(); len(ph) != 1 || ph[0].Detail != "surge" {
		t.Fatalf("phases = %+v", ph)
	}
	if len(r.Traces()) != 0 || inFlight(r) != 0 {
		t.Fatal("straggler events must be ignored")
	}
}

// TestSpanTreeAttribution locks the span builder's parent links and latency
// split. A closed forward span charges the processing constant and
// attributes the rest to propagation. Each event names the span it hangs
// under, so peer 2's hit closes the 1→2 forward although the 0→2 forward
// was sent earlier; that one closes when it arrives as a duplicate.
func TestSpanTreeAttribution(t *testing.T) {
	const proc = sim.Millisecond
	t0 := sim.Second
	events := []Event{
		{At: t0, Kind: QuerySubmit, Query: 1, Span: 1, Peer: 0, From: -1, Detail: "q{a}"},
		{At: t0, Kind: QueryForward, Query: 1, Span: 2, Parent: 1, Peer: 1, From: 0},
		{At: t0, Kind: QueryForward, Query: 1, Span: 3, Parent: 1, Peer: 2, From: 0},
		// Peer 1 received + processed, forwards on at +10ms.
		{At: t0 + 10*sim.Millisecond, Kind: QueryForward, Query: 1, Span: 4, Parent: 2, Peer: 2, From: 1},
		// Peer 2 hits at +25ms over 1→2, so that link took 15ms.
		{At: t0 + 25*sim.Millisecond, Kind: StorageHit, Query: 1, Span: 5, Parent: 4, Peer: 2, From: 1},
		{At: t0 + 30*sim.Millisecond, Kind: ResponseHop, Query: 1, Span: 6, Parent: 5, Peer: 1, From: 2},
		// The slow 0→2 forward arrives at +40ms, a duplicate.
		{At: t0 + 40*sim.Millisecond, Kind: QueryDuplicate, Query: 1, Span: 7, Parent: 3, Peer: 2, From: 0},
		{At: t0 + 40*sim.Millisecond, Kind: ResponseHop, Query: 1, Span: 8, Parent: 6, Peer: 0, From: 1},
		{At: t0 + 55*sim.Millisecond, Kind: DownloadComplete, Query: 1, Span: 9, Parent: 8, Peer: 0, From: 2},
		{At: t0 + 30*sim.Second, Kind: QueryFinalize, Query: 1, Span: 10, Parent: 1, Peer: 0, From: -1},
	}
	tree := BuildSpanTree(1, events, proc)
	if tree == nil {
		t.Fatal("no tree built")
	}
	if tree.Failed || tree.Latency != 55*sim.Millisecond {
		t.Fatalf("tree latency=%v failed=%v", tree.Latency, tree.Failed)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("root fan-out = %d, want 2", len(tree.Root.Children))
	}
	fwd01, fwd02 := tree.Root.Children[0], tree.Root.Children[1]
	if fwd01.Kind != QueryForward || fwd01.Peer != 1 || fwd01.From != 0 {
		t.Fatalf("first hop = %+v", fwd01)
	}
	if fwd01.Open || fwd01.Processing != proc || fwd01.Propagation != 9*sim.Millisecond {
		t.Fatalf("hop 0→1 split prop=%v proc=%v open=%v", fwd01.Propagation, fwd01.Processing, fwd01.Open)
	}
	if len(fwd01.Children) != 1 {
		t.Fatalf("hop 0→1 children = %d", len(fwd01.Children))
	}
	fwd12 := fwd01.Children[0]
	if fwd12.Propagation != 14*sim.Millisecond || fwd12.Processing != proc {
		t.Fatalf("hop 1→2 split prop=%v proc=%v", fwd12.Propagation, fwd12.Processing)
	}
	if len(fwd12.Children) != 1 || fwd12.Children[0].Kind != StorageHit {
		t.Fatalf("hop 1→2 children = %+v, want the storage hit", fwd12.Children)
	}
	if fwd02.Peer != 2 || fwd02.From != 0 || fwd02.Propagation != 39*sim.Millisecond ||
		len(fwd02.Children) != 1 || fwd02.Children[0].Kind != QueryDuplicate {
		t.Fatalf("hop 0→2 = %+v, want closed at +40ms by the duplicate", fwd02)
	}
	out := tree.Render()
	for _, want := range []string{"fwd 0→1", "fwd 1→2", "fwd 0→2", "storage-hit", "duplicate", "resp 2→1", "resp 1→0", "download"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "open") {
		t.Fatalf("fully closed tree rendered an open span:\n%s", out)
	}
}

// TestSpanTreeCrossingResponses: two responses from different hits pass
// through peer 1 and arrive there in the reverse of their send order, and
// peer 1 caches the second-sent one between the two arrivals. Pairing the
// hops first-in first-out at peer 1 would close the 2→1 hop at the 3→1
// hop's arrival and hang the cached span under it. With each event naming
// its parent, every hop closes on its own link and the cached span hangs
// under the hop that delivered it.
func TestSpanTreeCrossingResponses(t *testing.T) {
	const proc = sim.Millisecond
	ms := sim.Millisecond
	t0 := sim.Second
	events := []Event{
		{At: t0, Kind: QuerySubmit, Query: 1, Span: 1, Peer: 0, From: -1},
		{At: t0, Kind: QueryForward, Query: 1, Span: 2, Parent: 1, Peer: 1, From: 0},
		{At: t0 + 10*ms, Kind: QueryForward, Query: 1, Span: 3, Parent: 2, Peer: 2, From: 1},
		{At: t0 + 10*ms, Kind: QueryForward, Query: 1, Span: 4, Parent: 2, Peer: 3, From: 1},
		{At: t0 + 20*ms, Kind: StorageHit, Query: 1, Span: 5, Parent: 3, Peer: 2, From: 1},
		// Sent first over the slow 2→1 link: it arrives at +50ms.
		{At: t0 + 20*ms, Kind: ResponseHop, Query: 1, Span: 6, Parent: 5, Peer: 1, From: 2},
		{At: t0 + 25*ms, Kind: CacheHit, Query: 1, Span: 7, Parent: 4, Peer: 3, From: 1},
		// Sent second over the fast 3→1 link: it arrives at +30ms.
		{At: t0 + 25*ms, Kind: ResponseHop, Query: 1, Span: 8, Parent: 7, Peer: 1, From: 3},
		{At: t0 + 30*ms, Kind: ResponseCached, Query: 1, Span: 9, Parent: 8, Peer: 1, From: -1},
		{At: t0 + 30*ms, Kind: ResponseHop, Query: 1, Span: 10, Parent: 8, Peer: 0, From: 1},
		{At: t0 + 40*ms, Kind: DownloadComplete, Query: 1, Span: 11, Parent: 10, Peer: 0, From: 3},
		{At: t0 + 50*ms, Kind: ResponseHop, Query: 1, Span: 12, Parent: 6, Peer: 0, From: 1},
		{At: t0 + 30*sim.Second, Kind: QueryFinalize, Query: 1, Span: 13, Parent: 1, Peer: 0, From: -1},
	}
	tree := BuildSpanTree(1, events, proc)
	if tree == nil || tree.Spans != 12 || tree.Latency != 40*ms {
		t.Fatalf("tree = %+v", tree)
	}
	fwd := tree.Root.Children[0]
	if len(fwd.Children) != 2 {
		t.Fatalf("peer 1 fan-out = %d, want 2", len(fwd.Children))
	}
	hopA := fwd.Children[0].Children[0].Children[0] // fwd 1→2, storage hit, resp 2→1
	hopB := fwd.Children[1].Children[0].Children[0] // fwd 1→3, cache hit, resp 3→1
	if hopA.Kind != ResponseHop || hopA.From != 2 || hopA.Open || hopA.End-hopA.Start != 30*ms {
		t.Fatalf("resp 2→1 = %+v, want closed at +50ms after 30ms", hopA)
	}
	if hopB.Kind != ResponseHop || hopB.From != 3 || hopB.Open || hopB.End-hopB.Start != 5*ms {
		t.Fatalf("resp 3→1 = %+v, want closed at +30ms after 5ms", hopB)
	}
	if len(hopB.Children) != 2 || hopB.Children[0].Kind != ResponseCached || hopB.Children[1].Kind != ResponseHop {
		t.Fatalf("resp 3→1 children = %+v, want the cached span and the next hop", hopB.Children)
	}
	if next := hopB.Children[1]; next.Open || next.End-next.Start != 10*ms ||
		len(next.Children) != 1 || next.Children[0].Kind != DownloadComplete {
		t.Fatalf("resp 1→0 after 3→1 = %+v, want closed by the download", next)
	}
	if len(hopA.Children) != 1 || hopA.Children[0].Kind != ResponseHop || !hopA.Children[0].Open {
		t.Fatalf("resp 2→1 children = %+v, want the one open 1→0 hop", hopA.Children)
	}
}

// TestSpanTreeOpenSpans: a forward no event closes stays open to the
// tree's end, and an event naming a span that is not there hangs under the
// root.
func TestSpanTreeOpenSpans(t *testing.T) {
	t0 := sim.Second
	events := []Event{
		{At: t0, Kind: QuerySubmit, Query: 1, Span: 1, Peer: 0, From: -1},
		{At: t0, Kind: QueryForward, Query: 1, Span: 2, Parent: 1, Peer: 1, From: 0},
		{At: t0 + sim.Millisecond, Kind: QueryDuplicate, Query: 1, Span: 5, Parent: 3, Peer: 0, From: 2},
		{At: t0 + 30*sim.Second, Kind: QueryFailed, Query: 1, Span: 3, Parent: 1, Peer: 0, From: -1},
		{At: t0 + 30*sim.Second, Kind: QueryFinalize, Query: 1, Span: 4, Parent: 1, Peer: 0, From: -1},
	}
	tree := BuildSpanTree(1, events, sim.Millisecond)
	if tree == nil || !tree.Failed {
		t.Fatalf("tree = %+v", tree)
	}
	fwd := tree.Root.Children[0]
	if !fwd.Open || fwd.End != tree.Root.End {
		t.Fatalf("never-received forward should be open to the tree's end: %+v", fwd)
	}
	if len(tree.Root.Children) != 3 || tree.Root.Children[1].Kind != QueryDuplicate {
		t.Fatalf("root children = %+v, want the forward, the stray duplicate and the failure", tree.Root.Children)
	}
	if !strings.Contains(tree.Render(), "open") {
		t.Fatalf("render missing open marker:\n%s", tree.Render())
	}
}

func TestSpanTreeNoSubmit(t *testing.T) {
	events := []Event{{At: sim.Second, Kind: QueryForward, Query: 1, Span: 2, Parent: 1, Peer: 1, From: 0}}
	if tree := BuildSpanTree(1, events, sim.Millisecond); tree != nil {
		t.Fatalf("tree without submit = %+v", tree)
	}
}

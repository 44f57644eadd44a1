package trace

import (
	"fmt"
	"strings"

	"github.com/p2prepro/locaware/internal/sim"
)

// Span is one node of a query's causal tree: either a link span (a query
// forward or a response hop, with a real duration from send to receipt) or
// a point span (submit, hit, cached, duplicate, download, failed — an
// instant at one peer).
type Span struct {
	// Kind is the trace kind the span was built from.
	Kind Kind
	// Peer is the peer the span lands on (the link target, or the acting
	// peer for point spans); From is the link source (-1 for point spans).
	Peer, From int
	// Start and End bound the span. A link span starts when the message is
	// sent and ends when the target processes it; point spans have
	// Start == End.
	Start, End sim.Time
	// Open marks a link span that never closed: the message died in flight
	// (TTL exhausted at the target, target offline, or the run ended).
	Open bool
	// Propagation and Processing split a closed link span's latency:
	// Processing is the per-hop protocol processing cost (clipped to the
	// span), Propagation the remaining wire time.
	Propagation, Processing sim.Time
	// Detail is the source event's annotation.
	Detail string
	// Children are causally dependent spans, in event order.
	Children []*Span
}

// label renders the span's head: "fwd 3→7", "resp 7→3", or the point kind.
func (s *Span) label() string {
	switch s.Kind {
	case QueryForward:
		return fmt.Sprintf("fwd %d→%d", s.From, s.Peer)
	case ResponseHop:
		return fmt.Sprintf("resp %d→%d", s.From, s.Peer)
	default:
		return s.Kind.String()
	}
}

// SpanTree is one query's reconstructed causal tree.
type SpanTree struct {
	// Query is the query id.
	Query uint64
	// Root is the query's lifetime span (submit to download/finalize),
	// rooted at the origin peer.
	Root *Span
	// Spans counts every span in the tree, root included.
	Spans int
	// Failed reports the query finalised without an answer.
	Failed bool
	// Latency is the root span's duration.
	Latency sim.Time
}

// link is a directed overlay link a message crossed.
type link struct{ from, to int }

// spanBuilder accumulates the per-peer open-span bookkeeping while the
// flat event stream replays.
type spanBuilder struct {
	processing sim.Time
	root       *Span
	nodeSpan   map[int]*Span   // query presence at a peer (inbound span)
	fwdTo      map[int][]*Span // forward spans by target peer, in send order
	dupLink    map[link]bool   // links a QueryDuplicate names
	openResp   map[int][]*Span // FIFO open response spans by target peer
	respAt     map[int]*Span   // response origin span (the hit) by peer
	count      int
	doneAt     sim.Time
	hasDone    bool
	endAt      sim.Time
	failed     bool
}

// BuildSpanTree reconstructs query q's span tree from its flat events
// (emission order, as a FlightRecorder stores them). processing is the
// protocol's per-hop processing delay, used to split each closed link
// span's latency into processing + propagation. Events of other queries
// and phase entries in the slice are ignored. Returns nil when the events
// contain no QuerySubmit.
//
// A forward span is keyed by its (from, to) link: a peer forwards a query
// at most once, so each link carries at most one forward. A duplicate or a
// hit names the link it arrived over (its From) and closes that span. A
// peer's inbound span — the one its first forward closes — is the forward to
// it whose link no duplicate names; arrival order follows link latency, not
// send order, so no queue discipline could pair them. Response hops carry no
// such name and keep FIFO-per-target pairing, which puts a few response hops
// on the wrong link: 46 of 57 873 link spans of a 300-peer Flooding run, at
// most 2 under the selective protocols.
func BuildSpanTree(q uint64, events []Event, processing sim.Time) *SpanTree {
	b := &spanBuilder{
		processing: processing,
		nodeSpan:   make(map[int]*Span),
		fwdTo:      make(map[int][]*Span),
		dupLink:    make(map[link]bool),
		openResp:   make(map[int][]*Span),
		respAt:     make(map[int]*Span),
	}
	for _, e := range events {
		if e.Query == q && e.Kind == QueryDuplicate {
			b.dupLink[link{e.From, e.Peer}] = true
		}
	}
	for _, e := range events {
		if e.Query != q {
			continue
		}
		b.apply(e)
	}
	if b.root == nil {
		return nil
	}
	end := b.endAt
	if b.hasDone {
		end = b.doneAt
	}
	if end < b.root.Start {
		end = b.root.Start
	}
	b.root.End = end
	// Clip spans the run never closed to the tree's end.
	b.closeOpen(b.root, end)
	return &SpanTree{
		Query:   q,
		Root:    b.root,
		Spans:   b.count,
		Failed:  b.failed,
		Latency: b.root.End - b.root.Start,
	}
}

func (b *spanBuilder) newSpan(e Event) *Span {
	b.count++
	return &Span{Kind: e.Kind, Peer: e.Peer, From: e.From, Start: e.At, End: e.At, Detail: e.Detail}
}

// attach adds child under parent, falling back to the root.
func (b *spanBuilder) attach(parent, child *Span) {
	if parent == nil {
		parent = b.root
	}
	if parent == nil || parent == child {
		return
	}
	parent.Children = append(parent.Children, child)
}

// close ends link span s (nil passes through) at 'at' with latency
// attribution.
func (b *spanBuilder) close(s *Span, at sim.Time) *Span {
	if s == nil {
		return nil
	}
	s.End = at
	total := at - s.Start
	s.Processing = min(b.processing, total)
	s.Propagation = total - s.Processing
	return s
}

// inbound returns the forward span sent to peer over from→peer or, with
// from < 0, the peer's first receipt: the forward whose link no duplicate
// names.
func (b *spanBuilder) inbound(peer, from int) *Span {
	for _, s := range b.fwdTo[peer] {
		if s.From == from || from < 0 && !b.dupLink[link{s.From, peer}] {
			return s
		}
	}
	return nil
}

// closeResp pops and closes the earliest open response span targeting peer.
func (b *spanBuilder) closeResp(peer int, at sim.Time) *Span {
	q := b.openResp[peer]
	if len(q) == 0 {
		return nil
	}
	b.openResp[peer] = q[1:]
	return b.close(q[0], at)
}

func (b *spanBuilder) apply(e Event) {
	if e.At > b.endAt {
		b.endAt = e.At
	}
	switch e.Kind {
	case QuerySubmit:
		if b.root != nil {
			return
		}
		r := b.newSpan(e)
		r.From = -1
		b.root = r
		b.nodeSpan[e.Peer] = r
	case QueryForward:
		// The sender forwarding is the first proof it received the query:
		// close its inbound span once (a fan-out emits several forwards).
		if b.root == nil {
			return
		}
		if _, have := b.nodeSpan[e.From]; !have {
			b.nodeSpan[e.From] = b.close(b.inbound(e.From, -1), e.At)
		}
		s := b.newSpan(e)
		b.attach(b.nodeSpan[e.From], s)
		b.fwdTo[e.Peer] = append(b.fwdTo[e.Peer], s)
	case QueryDuplicate:
		b.attach(b.close(b.inbound(e.Peer, e.From), e.At), b.newSpan(e))
	case StorageHit, CacheHit:
		// A hit at submission (no From) lands on the origin's root.
		in := b.nodeSpan[e.Peer]
		if e.From >= 0 {
			in = b.close(b.inbound(e.Peer, e.From), e.At)
			b.nodeSpan[e.Peer] = in
		}
		hit := b.newSpan(e)
		b.attach(in, hit)
		b.respAt[e.Peer] = hit
	case ResponseHop:
		parent := b.closeResp(e.From, e.At)
		if parent == nil {
			parent = b.respAt[e.From]
		}
		s := b.newSpan(e)
		b.attach(parent, s)
		b.openResp[e.Peer] = append(b.openResp[e.Peer], s)
	case ResponseCached:
		var parent *Span
		if q := b.openResp[e.Peer]; len(q) > 0 {
			parent = q[0]
		}
		b.attach(parent, b.newSpan(e))
	case DownloadComplete:
		in := b.closeResp(e.Peer, e.At)
		if in == nil {
			in = b.respAt[e.Peer]
		}
		b.attach(in, b.newSpan(e))
		b.doneAt, b.hasDone = e.At, true
	case QueryFailed:
		b.failed = true
		b.attach(b.root, b.newSpan(e))
	case QueryFinalize:
		// End-of-life marker: bounds the tree but adds no span.
	}
}

// closeOpen walks the tree marking never-closed link spans Open and
// clipping their End to the tree's end.
func (b *spanBuilder) closeOpen(s *Span, end sim.Time) {
	if (s.Kind == QueryForward || s.Kind == ResponseHop) && s.End == s.Start && s.Processing == 0 {
		// Still at its creation timestamp with no attribution: check it is
		// genuinely unclosed (a closed zero-length span would have
		// Processing == total == 0 too, but such hops cannot exist — every
		// link has positive latency).
		s.Open = true
		if end > s.End {
			s.End = end
		}
	}
	for _, c := range s.Children {
		b.closeOpen(c, end)
	}
}

// Render formats the tree as an indented text timeline: one line per span
// with offsets relative to submission, durations, and the
// propagation/processing split for closed link spans.
func (t *SpanTree) Render() string {
	var sb strings.Builder
	status := "ok"
	if t.Failed {
		status = "FAILED"
	}
	fmt.Fprintf(&sb, "q=%d peer=%d submit@%s latency=%s spans=%d %s\n",
		t.Query, t.Root.Peer, t.Root.Start, t.Latency, t.Spans, status)
	if t.Root.Detail != "" {
		fmt.Fprintf(&sb, "  %s\n", t.Root.Detail)
	}
	for _, c := range t.Root.Children {
		renderSpan(&sb, c, t.Root.Start, 1)
	}
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, t0 sim.Time, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	switch {
	case s.Open:
		fmt.Fprintf(sb, "%s [+%s …] open", s.label(), s.Start-t0)
	case s.Kind == QueryForward || s.Kind == ResponseHop:
		fmt.Fprintf(sb, "%s [+%s %s] prop=%s proc=%s",
			s.label(), s.Start-t0, s.End-s.Start, s.Propagation, s.Processing)
	default:
		fmt.Fprintf(sb, "%s @+%s peer=%d", s.label(), s.Start-t0, s.Peer)
	}
	if s.Detail != "" {
		fmt.Fprintf(sb, " %s", s.Detail)
	}
	sb.WriteByte('\n')
	for _, c := range s.Children {
		renderSpan(sb, c, t0, depth+1)
	}
}

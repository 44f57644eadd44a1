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
	// peer for point spans); From is the event's counterpart peer (the link
	// source for link spans, -1 when there is none).
	Peer, From int
	// Start and End bound the span. A link span starts when the message is
	// sent and ends when the target processes it; point spans have
	// Start == End.
	Start, End sim.Time
	// Open marks a link span no child closed: the message died in flight
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

// close ends open link span s at the first event it caused, the proof the
// message arrived then, and splits its latency: the processing constant
// (clipped to the span) and the propagation rest.
func (s *Span) close(at, processing sim.Time) {
	s.Open = false
	s.End = at
	s.Processing = min(processing, at-s.Start)
	s.Propagation = at - s.Start - s.Processing
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

// BuildSpanTree rebuilds query q's span tree from its flat events
// (emission order, as a FlightRecorder stores them) in one pass. Every
// event but the finalize marker is one span, kept at its Span id and hung
// under the span its Parent names (the root when that span is missing). A
// link span — a forward or a response hop — is open from its send until
// the first event hung under it, which closes it: the message arrived
// then. processing is the protocol's per-hop processing delay, which splits
// each closed link span's latency into processing + propagation. Spans no
// event closed stay Open, their End clipped to the tree's end. Events of
// other queries are ignored. Returns nil when the events contain no
// QuerySubmit.
func BuildSpanTree(q uint64, events []Event, processing sim.Time) *SpanTree {
	t := &SpanTree{Query: q}
	var (
		spans       []*Span // by span id
		end, doneAt sim.Time
		done        bool
	)
	for _, e := range events {
		if e.Query != q {
			continue
		}
		end = max(end, e.At)
		switch e.Kind {
		case QueryFinalize:
			continue // end-of-life marker: bounds the tree but adds no span
		case DownloadComplete:
			doneAt, done = e.At, true
		case QueryFailed:
			t.Failed = true
		}
		s := &Span{Kind: e.Kind, Peer: e.Peer, From: e.From, Start: e.At, End: e.At, Detail: e.Detail,
			Open: e.Kind == QueryForward || e.Kind == ResponseHop}
		switch {
		case t.Root != nil:
			parent := t.Root
			if int(e.Parent) < len(spans) && spans[e.Parent] != nil {
				parent = spans[e.Parent]
			}
			if parent.Open {
				parent.close(e.At, processing)
			}
			parent.Children = append(parent.Children, s)
		case e.Kind == QuerySubmit:
			t.Root = s
		default:
			continue
		}
		t.Spans++
		for int(e.Span) >= len(spans) {
			spans = append(spans, nil)
		}
		spans[e.Span] = s
	}
	if t.Root == nil {
		return nil
	}
	if done {
		end = doneAt
	}
	t.Root.End = max(end, t.Root.Start)
	t.Latency = t.Root.End - t.Root.Start
	for _, s := range spans {
		if s != nil && s.Open {
			s.End = max(s.End, t.Root.End)
		}
	}
	return t
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

package trace

import (
	"fmt"
	"strings"

	"github.com/p2prepro/locaware/internal/sim"
)

// Span is one node of a query's causal tree: a link span (a query forward
// or a response hop, from send to receipt) or a point span (submit, hit,
// cached, duplicate, download, failed: an instant at one peer).
type Span struct {
	Kind Kind // the kind of the event the span was built from
	// Peer is the peer the span lands on (the link target, or the acting
	// peer); From the event's counterpart (the link source, -1 for none).
	Peer, From int
	// Start and End bound the span: a link span ends when the target
	// processes the message, a point span has Start == End.
	Start, End sim.Time
	// Open marks a link span no child closed: the message died in flight
	// (TTL exhausted at the target, target offline, or the run ended).
	Open bool
	// Propagation and Processing split a closed link span's latency:
	// the per-hop processing delay (clipped to the span) and the wire time.
	Propagation, Processing sim.Time
	Detail                  string  // the source event's annotation
	Children                []*Span // causally dependent spans, in event order
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

// SpanTree is one query's reconstructed causal tree: its Root spans the
// query's life (submit to download or finalize) at the origin peer, Spans
// counts every span, root included, and Latency is the root's duration.
type SpanTree struct {
	Query   uint64
	Root    *Span
	Spans   int
	Failed  bool // the query was finalised without an answer
	Latency sim.Time
}

// BuildSpanTree rebuilds query q's span tree from its events, in emission
// order, in one pass. Every event but the finalize marker is one span, kept
// at its Span id and hung under the span its Parent names (the root when
// that span is missing). A link span is open from its send until the first
// event hung under it, which closes it: the message arrived then. Its
// latency splits into processing, the run's per-hop processing delay, and
// propagation. Spans no event closed stay Open, their End clipped to the
// tree's end. Returns nil when the events hold no QuerySubmit.
func BuildSpanTree(q uint64, events []Event, processing sim.Time) *SpanTree {
	t := &SpanTree{Query: q}
	var spans []*Span // by span id
	var end sim.Time  // the last event's time, or the download's
	done := false
	for _, e := range events {
		if !done {
			end = max(end, e.At)
		}
		switch e.Kind {
		case QueryFinalize:
			continue // end-of-life marker: bounds the tree but adds no span
		case DownloadComplete:
			done = true
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
			if parent.Open { // the message arrived now
				parent.Open, parent.End = false, e.At
				parent.Processing = min(processing, e.At-parent.Start)
				parent.Propagation = e.At - parent.Start - parent.Processing
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
	sb.WriteString(strings.Repeat("  ", depth))
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

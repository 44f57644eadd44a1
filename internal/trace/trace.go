// Package trace provides structured event tracing for simulation runs:
// each significant action of a query's life (submission, forwarding
// decision, hit, reverse-path caching, download completion, finalisation)
// and each scenario phase entry emits an Event. The FlightRecorder is the
// one production sink: it groups the stream per query and rebuilds each
// retained query's story as a span tree for `locaware trace`,
// Perfetto export and campaign exemplars.
package trace

import (
	"fmt"

	"github.com/p2prepro/locaware/internal/sim"
)

// Kind classifies a trace event.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	// QuerySubmit: a peer injected a query.
	QuerySubmit Kind = iota
	// QueryForward: a peer forwarded the query to a neighbour.
	QueryForward
	// QueryDuplicate: a peer dropped an already-seen query.
	QueryDuplicate
	// StorageHit: a peer satisfied the query from shared storage.
	StorageHit
	// CacheHit: a peer satisfied the query from its response index.
	CacheHit
	// ResponseHop: the response advanced one hop on the reverse path.
	ResponseHop
	// ResponseCached: a reverse-path peer cached the response.
	ResponseCached
	// DownloadComplete: the requester selected a provider.
	DownloadComplete
	// QueryFailed: the query was finalised without an answer.
	QueryFailed
	// PhaseEnter: a scenario phase entered (its dynamics events fired).
	// Phase events carry no peer (Peer = -1) and no query id.
	PhaseEnter
	// QueryFinalize: the query's bookkeeping was retired. Every query emits
	// exactly one, after its download or failure outcome, so it is the
	// end-of-life signal flight recorders key tail-sampling decisions on.
	QueryFinalize
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case QuerySubmit:
		return "submit"
	case QueryForward:
		return "forward"
	case QueryDuplicate:
		return "duplicate"
	case StorageHit:
		return "storage-hit"
	case CacheHit:
		return "cache-hit"
	case ResponseHop:
		return "response-hop"
	case ResponseCached:
		return "cached"
	case DownloadComplete:
		return "download"
	case QueryFailed:
		return "failed"
	case PhaseEnter:
		return "phase"
	case QueryFinalize:
		return "finalize"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// RootSpan is the span id of a query's submit event, the root of its tree.
const RootSpan int32 = 1

// Event is one traced protocol action.
type Event struct {
	// At is the virtual timestamp.
	At sim.Time
	// Kind classifies the action.
	Kind Kind
	// Query is the query id the action belongs to (0 for phase entries).
	Query uint64
	// Span is the event's own id within its query, and Parent the id of the
	// span it hangs under. The simulator numbers a query's events from
	// RootSpan in emission order, and names the parent it knows: a forward
	// hangs under the forward that delivered the query to its sender (the
	// root at the origin), a duplicate or a hit under the forward it arrived
	// on, a response hop under the previous hop or the hit, a cached or
	// download event under the hop that delivered the response, a failure
	// under the root. 0 names no span: phase entries, and the events of a
	// response that outlives its query.
	Span, Parent int32
	// Peer is the acting peer; From the counterpart peer when the action
	// crosses a link (-1 otherwise): the sender of a forward, a response
	// hop, a duplicate or a hit, the provider of a download.
	Peer, From int
	// Detail is a short human-readable annotation (filename, provider,
	// metric).
	Detail string
}

// String renders the event as a log line: the virtual time in seconds, the
// query, the kind's name, the acting peer and, for a link-crossing action,
// its counterpart. A network-wide event (Peer < 0, a phase entry) prints
// its kind and detail only.
func (e Event) String() string {
	at := e.At.Seconds()
	if e.Peer < 0 {
		return fmt.Sprintf("%9.3fs ------ %-12s %s", at, e.Kind, e.Detail)
	}
	if e.From >= 0 {
		return fmt.Sprintf("%9.3fs q=%-4d %-12s peer=%-4d from=%-4d %s", at, e.Query, e.Kind, e.Peer, e.From, e.Detail)
	}
	return fmt.Sprintf("%9.3fs q=%-4d %-12s peer=%-4d           %s", at, e.Query, e.Kind, e.Peer, e.Detail)
}

// Tracer consumes events. Implementations must be cheap: the simulator
// calls Emit on hot paths. FlightRecorder is the one production
// implementation; tests implement it to watch the raw stream.
type Tracer interface {
	Emit(Event)
}

// Package trace provides structured event tracing for simulation runs:
// each significant protocol action (query submission, forwarding decision,
// hit, reverse-path caching, download completion, gossip) emits an Event.
// Traces power the locaware-trace CLI, debugging sessions, and tests that
// assert on protocol behaviour rather than aggregate metrics.
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
	// BloomGossip: a peer announced a Bloom filter update to a neighbour.
	BloomGossip
	// PhaseEnter: a scenario phase entered (its dynamics events fired).
	// Phase events carry no peer (Peer = -1) and no query id.
	PhaseEnter
	// QueryFinalize: the query's bookkeeping was retired. Every query emits
	// exactly one, after its download or failure outcome, so it is the
	// end-of-life signal flight recorders key tail-sampling decisions on.
	QueryFinalize

	// KindCount bounds the kind space for bitmask-sized tables.
	KindCount
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
	case BloomGossip:
		return "gossip"
	case PhaseEnter:
		return "phase"
	case QueryFinalize:
		return "finalize"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one traced protocol action.
type Event struct {
	// At is the virtual timestamp.
	At sim.Time
	// Kind classifies the action.
	Kind Kind
	// Query is the query id the action belongs to (0 for gossip).
	Query uint64
	// Peer is the acting peer; From the counterpart peer when the action
	// crosses a link (-1 otherwise).
	Peer, From int
	// Detail is a short human-readable annotation (filename, provider,
	// metric).
	Detail string
}

// String formats the event as one log line.
func (e Event) String() string {
	if e.From >= 0 {
		return fmt.Sprintf("%-10s q=%-4d %s peer=%d from=%d %s", e.At, e.Query, e.Kind, e.Peer, e.From, e.Detail)
	}
	return fmt.Sprintf("%-10s q=%-4d %s peer=%d %s", e.At, e.Query, e.Kind, e.Peer, e.Detail)
}

// Tracer consumes events. Implementations must be cheap: the simulator
// calls Emit on hot paths.
type Tracer interface {
	Emit(Event)
}

// KindFilter is an optional Tracer capability: a sink that discards some
// event kinds outright implements it so emitters can skip building those
// events — and their detail-string allocations — at the source. WantMask
// folds a sink's answers into a bitmask for branch-free hot-path checks.
type KindFilter interface {
	WantKind(Kind) bool
}

// WantMask returns tr's kind-interest bitmask (bit k set = kind k wanted).
// Sinks without the KindFilter capability want everything.
func WantMask(tr Tracer) uint32 {
	const all = 1<<KindCount - 1
	if tr == nil {
		return 0
	}
	kf, ok := tr.(KindFilter)
	if !ok {
		return all
	}
	var m uint32
	for k := Kind(0); k < KindCount; k++ {
		if kf.WantKind(k) {
			m |= 1 << k
		}
	}
	return m
}

// Buffer is a bounded in-memory tracer. When full it drops new events and
// counts the drops, so tracing long runs cannot exhaust memory.
type Buffer struct {
	cap     int
	events  []Event
	dropped uint64
}

// NewBuffer returns a tracer retaining at most capacity events
// (capacity <= 0 means 4096).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{cap: capacity}
}

// Emit implements Tracer.
func (b *Buffer) Emit(e Event) {
	if len(b.events) >= b.cap {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// Events returns the retained events in emission order.
func (b *Buffer) Events() []Event {
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Dropped returns how many events were discarded after the buffer filled.
func (b *Buffer) Dropped() uint64 { return b.dropped }

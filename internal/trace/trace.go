// Package trace provides structured event tracing for simulation runs:
// each significant action of a query's life (submission, forwarding
// decision, hit, reverse-path caching, download, finalisation) is a Record,
// each scenario phase entry an Event. The FlightRecorder, the one production
// sink, rebuilds each retained query's story as Events and a span tree for
// `locaware trace`, Perfetto export and campaign exemplars.
package trace

import (
	"fmt"
	"strconv"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds, in rough lifecycle order. A phase entry carries no peer
// (Peer = -1) and no query id. Every query emits exactly one finalize,
// after its download or failure, the end-of-life signal a flight recorder
// keys its retention decision on.
const (
	QuerySubmit      Kind = iota // a peer injected a query
	QueryForward                 // a peer forwarded the query to a neighbour
	QueryDuplicate               // a peer dropped an already-seen query
	StorageHit                   // a peer satisfied the query from shared storage
	CacheHit                     // a peer satisfied the query from its response index
	ResponseHop                  // the response advanced one hop on the reverse path
	ResponseCached               // a reverse-path peer cached the response
	DownloadComplete             // the requester selected a provider
	QueryFailed                  // the query was finalised without an answer
	PhaseEnter                   // a scenario phase entered (its dynamics events fired)
	QueryFinalize                // the query's bookkeeping was retired
)

var kindNames = [...]string{"submit", "forward", "duplicate", "storage-hit", "cache-hit",
	"response-hop", "cached", "download", "failed", "phase", "finalize"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// RootSpan is the span id of a query's submit event, the root of its tree.
const RootSpan int32 = 1

// Event is one traced protocol action.
type Event struct {
	At    sim.Time // the virtual timestamp
	Kind  Kind
	Query uint64 // the query the action belongs to (0 for phase entries)
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
	Detail     string // a short human-readable annotation (filename, provider, metric)
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

// Record is a query's Event as the simulator hands it over: the same
// fields, but with the values its Detail is spelt from instead of the
// string, so a query no policy keeps never pays for spelling it.
type Record struct {
	At           sim.Time
	Query        uint64
	RTT          float64 // a download's RTT to its provider, in ms
	Span, Parent int32
	Peer, From   int32
	// File is the file a hit, a cached response or a download names, or
	// the keywords of the query a submission names.
	File    keywords.Filename
	Hops    int32 // a forward's chain length from the origin
	Kind    Kind
	SameLoc bool // a download's provider shares the requester's locality
}

// Event spells the record as an Event.
func (r Record) Event() Event {
	var d []byte
	switch r.Kind {
	case QuerySubmit:
		d = r.File.Query().AppendString(d)
	case StorageHit, CacheHit, ResponseCached:
		d = r.File.AppendName(d)
	case DownloadComplete:
		d = strconv.AppendFloat(append(r.File.AppendName(d), " rtt="...), r.RTT, 'f', 1, 64)
		d = strconv.AppendBool(append(d, "ms sameLoc="...), r.SameLoc)
	}
	return Event{At: r.At, Kind: r.Kind, Query: r.Query, Span: r.Span, Parent: r.Parent,
		Peer: int(r.Peer), From: int(r.From), Detail: string(d)}
}

// Tracer consumes a run's trace stream: Emit each action of a query's life,
// on the simulator's hot paths, and Phase each scenario phase entry.
// FlightRecorder is the one production implementation; tests implement it
// to watch the raw stream.
type Tracer interface {
	Emit(Record)
	Phase(Event)
}

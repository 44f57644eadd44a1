package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// pfArgs is a Perfetto event's args payload. Name is set only on a
// thread_name metadata event: the viewers read it as the track label.
type pfArgs struct {
	Name   string  `json:"name,omitempty"`
	Query  uint64  `json:"query,omitempty"`
	From   int     `json:"from,omitempty"`
	Detail string  `json:"detail,omitempty"`
	PropMs float64 `json:"prop_ms,omitempty"`
	ProcMs float64 `json:"proc_ms,omitempty"`
	Open   bool    `json:"open,omitempty"`
}

// pfEvent is one entry of the Chrome trace-event format, which both viewers
// load; ts and dur are microseconds, the simulator's own tick.
type pfEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   int64   `json:"ts"`
	Dur  int64   `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`
	Args *pfArgs `json:"args,omitempty"`
}

// WritePerfetto exports span trees and scenario phase entries as a
// Chrome/Perfetto trace (load it at ui.perfetto.dev or chrome://tracing):
// one track (tid) per peer named "peer N", in ascending peer order, then
// every span as a complete ("X") event on its landing peer's track, the
// trees in the given order, each depth-first, then each phase entry as a
// global instant ("i") event.
func WritePerfetto(w io.Writer, trees []*SpanTree, phases []Event) error {
	var spans []pfEvent
	for _, t := range trees {
		if t != nil {
			spans = appendSpan(spans, t.Root, t.Query)
		}
	}
	var ids []int
	for _, e := range spans {
		ids = append(ids, e.Tid)
	}
	slices.Sort(ids)
	evs := make([]pfEvent, 0, len(spans)+len(phases)+len(ids))
	for _, p := range slices.Compact(ids) {
		evs = append(evs, pfEvent{Name: "thread_name", Ph: "M", Tid: p, Args: &pfArgs{Name: fmt.Sprintf("peer %d", p)}})
	}
	evs = append(evs, spans...)
	for _, e := range phases {
		evs = append(evs, pfEvent{Name: e.Detail, Ph: "i", Ts: int64(e.At), S: "g"})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []pfEvent `json:"traceEvents"`
		DisplayTimeUnit string    `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// appendSpan appends s's subtree to evs, depth-first, each span on its
// landing peer's track and at least 1 µs wide: zero-width events vanish in
// the viewers.
func appendSpan(evs []pfEvent, s *Span, query uint64) []pfEvent {
	evs = append(evs, pfEvent{Name: s.label(), Ph: "X", Ts: int64(s.Start), Dur: max(int64(s.End-s.Start), 1), Tid: s.Peer,
		Args: &pfArgs{Query: query, From: max(s.From, 0), Detail: s.Detail, Open: s.Open,
			PropMs: s.Propagation.Milliseconds(), ProcMs: s.Processing.Milliseconds()}})
	for _, c := range s.Children {
		evs = appendSpan(evs, c, query)
	}
	return evs
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// pfArgs is a Perfetto event's args payload. Name is set only on
// thread_name metadata events, where the viewers read args.name as the
// track label.
type pfArgs struct {
	Name   string  `json:"name,omitempty"`
	Query  uint64  `json:"query,omitempty"`
	From   int     `json:"from,omitempty"`
	Detail string  `json:"detail,omitempty"`
	PropMs float64 `json:"prop_ms,omitempty"`
	ProcMs float64 `json:"proc_ms,omitempty"`
	Open   bool    `json:"open,omitempty"`
}

// pfEvent is one entry of the Chrome trace-event format (the JSON both
// chrome://tracing and ui.perfetto.dev load). ts/dur are microseconds —
// exactly the simulator's native tick.
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

type pfFile struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

// WritePerfetto exports span trees (plus optional scenario phase events) as
// a Chrome/Perfetto trace: one track (tid) per peer named "peer N", every
// span a complete ("X") event on its landing peer's track, phase entries as
// global instant ("i") events. Output order is deterministic: track
// metadata in ascending peer order, then the trees in the given order, each
// depth-first, then phases. Load the file at ui.perfetto.dev or
// chrome://tracing.
func WritePerfetto(w io.Writer, trees []*SpanTree, phases []Event) error {
	var ids []int
	for _, t := range trees {
		if t != nil {
			ids = appendPeers(ids, t.Root)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)

	evs := make([]pfEvent, 0, 2*len(ids))
	for _, p := range ids {
		evs = append(evs, pfEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: p,
			Args: &pfArgs{Name: fmt.Sprintf("peer %d", p)},
		})
	}
	for _, t := range trees {
		if t != nil {
			evs = appendSpan(evs, t.Root, t.Query)
		}
	}
	for _, e := range phases {
		evs = append(evs, pfEvent{
			Name: e.Detail, Ph: "i", Ts: int64(e.At), Pid: 0, Tid: 0, S: "g",
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pfFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// appendPeers appends the peer of every span in s's subtree to ids.
func appendPeers(ids []int, s *Span) []int {
	if s.Peer >= 0 {
		ids = append(ids, s.Peer)
	}
	for _, c := range s.Children {
		ids = appendPeers(ids, c)
	}
	return ids
}

func appendSpan(evs []pfEvent, s *Span, query uint64) []pfEvent {
	if s == nil {
		return evs
	}
	if s.Peer >= 0 {
		dur := int64(s.End - s.Start)
		if dur < 1 {
			dur = 1 // zero-width events vanish in the UI
		}
		args := &pfArgs{Query: query, Detail: s.Detail, Open: s.Open,
			PropMs: s.Propagation.Milliseconds(), ProcMs: s.Processing.Milliseconds()}
		if s.From >= 0 {
			args.From = s.From
		}
		evs = append(evs, pfEvent{
			Name: s.label(), Ph: "X", Ts: int64(s.Start), Dur: dur,
			Pid: 0, Tid: s.Peer, Args: args,
		})
	}
	for _, c := range s.Children {
		evs = appendSpan(evs, c, query)
	}
	return evs
}

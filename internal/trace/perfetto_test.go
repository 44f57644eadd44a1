package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/p2prepro/locaware/internal/sim"
)

// TestWritePerfettoShape locks the Chrome trace-event export: the document
// parses, every participating peer gets a thread_name metadata event whose
// args.name labels the track (the field viewers actually read), every span
// is a complete ("X") event with a non-zero duration on its landing peer's
// track, and phase entries become global instants.
func TestWritePerfettoShape(t *testing.T) {
	t0 := sim.Second
	events := []Event{
		{At: t0, Kind: QuerySubmit, Query: 1, Span: 1, Peer: 0, From: -1, Detail: "q{a}"},
		{At: t0, Kind: QueryForward, Query: 1, Span: 2, Parent: 1, Peer: 1, From: 0},
		{At: t0 + 10*sim.Millisecond, Kind: QueryForward, Query: 1, Span: 3, Parent: 2, Peer: 2, From: 1},
		{At: t0 + 25*sim.Millisecond, Kind: StorageHit, Query: 1, Span: 4, Parent: 3, Peer: 2, From: -1},
		{At: t0 + 40*sim.Millisecond, Kind: DownloadComplete, Query: 1, Span: 5, Parent: 4, Peer: 0, From: 2},
	}
	tree := BuildSpanTree(1, events, sim.Millisecond)
	if tree == nil {
		t.Fatal("no tree")
	}
	phases := []Event{{At: t0 + 5*sim.Millisecond, Kind: PhaseEnter, Detail: "surge"}}

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, []*SpanTree{tree}, phases); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
			S    string `json:"s"`
			Args *struct {
				Name  string `json:"name"`
				Query uint64 `json:"query"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete, instants int
	namedTracks := map[int]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "thread_name" || e.Args == nil || e.Args.Name == "" {
				t.Fatalf("metadata event without args.name: %+v", e)
			}
			namedTracks[e.Tid] = e.Args.Name
		case "X":
			complete++
			if e.Dur < 1 {
				t.Fatalf("zero-width complete event: %+v", e)
			}
			if e.Args == nil || e.Args.Query != 1 {
				t.Fatalf("span without query annotation: %+v", e)
			}
		case "i":
			instants++
			if e.Name != "surge" || e.S != "g" {
				t.Fatalf("phase instant = %+v", e)
			}
		}
	}
	// Peers 0, 1, 2 participate.
	if meta != 3 {
		t.Fatalf("thread_name tracks = %d, want 3", meta)
	}
	// Every X event must land on a named track.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			if _, ok := namedTracks[e.Tid]; !ok {
				t.Fatalf("span on unnamed track %d", e.Tid)
			}
		}
	}
	if complete != tree.Spans {
		t.Fatalf("complete events = %d, want one per span = %d", complete, tree.Spans)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1", instants)
	}
}

// TestWritePerfettoDeterministic locks byte-stability: the same trees
// export to the same bytes, so a golden file can pin the format.
func TestWritePerfettoDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		t0 := sim.Second
		events := []Event{
			{At: t0, Kind: QuerySubmit, Query: 3, Span: 1, Peer: 4, From: -1},
			{At: t0, Kind: QueryForward, Query: 3, Span: 2, Parent: 1, Peer: 9, From: 4},
			{At: t0 + 20*sim.Millisecond, Kind: QueryFailed, Query: 3, Span: 3, Parent: 1, Peer: 4, From: -1},
		}
		tree := BuildSpanTree(3, events, sim.Millisecond)
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, []*SpanTree{tree}, nil); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestWritePerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
}

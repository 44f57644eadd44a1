package trace

import (
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/sim"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{QuerySubmit, QueryForward, QueryDuplicate, StorageHit, CacheHit,
		ResponseHop, ResponseCached, DownloadComplete, QueryFailed, BloomGossip}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind should fall back")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: sim.Second, Kind: QueryForward, Query: 7, Peer: 3, From: 2, Detail: "x"}
	s := e.String()
	if !strings.Contains(s, "forward") || !strings.Contains(s, "from=2") {
		t.Fatalf("event string %q", s)
	}
	e.From = -1
	if strings.Contains(e.String(), "from=") {
		t.Fatal("linkless event should omit from")
	}
}

func TestBufferRetainsAndDrops(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Emit(Event{Query: uint64(i)})
	}
	if n := len(b.Events()); n != 3 {
		t.Fatalf("len = %d", n)
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
	evs := b.Events()
	if len(evs) != 3 || evs[0].Query != 0 || evs[2].Query != 2 {
		t.Fatalf("events = %+v", evs)
	}
	evs[0].Query = 99
	if b.Events()[0].Query == 99 {
		t.Fatal("Events exposed internal storage")
	}
}

func TestBufferDefaultCapacity(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 5000; i++ {
		b.Emit(Event{})
	}
	if n := len(b.Events()); n != 4096 {
		t.Fatalf("default cap = %d", n)
	}
}

// forQuery filters events to one query id, in emission order.
func forQuery(evs []Event, q uint64) []Event {
	var out []Event
	for _, e := range evs {
		if e.Query == q {
			out = append(out, e)
		}
	}
	return out
}

// countKind returns how many events have kind k.
func countKind(evs []Event, k Kind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestForQueryAndCountKind(t *testing.T) {
	b := NewBuffer(10)
	b.Emit(Event{Query: 1, Kind: QuerySubmit})
	b.Emit(Event{Query: 1, Kind: QueryForward})
	b.Emit(Event{Query: 2, Kind: QuerySubmit})
	evs := b.Events()
	if got := forQuery(evs, 1); len(got) != 2 {
		t.Fatalf("forQuery(1) = %d", len(got))
	}
	if countKind(evs, QuerySubmit) != 2 || countKind(evs, QueryFailed) != 0 {
		t.Fatal("countKind wrong")
	}
}

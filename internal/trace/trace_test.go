package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{QuerySubmit, QueryForward, QueryDuplicate, StorageHit, CacheHit,
		ResponseHop, ResponseCached, DownloadComplete, QueryFailed, PhaseEnter, QueryFinalize}
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
	evs := []Event{{Query: 1, Kind: QuerySubmit}, {Query: 1, Kind: QueryForward}, {Query: 2, Kind: QuerySubmit}}
	if got := forQuery(evs, 1); len(got) != 2 {
		t.Fatalf("forQuery(1) = %d", len(got))
	}
	if countKind(evs, QuerySubmit) != 2 || countKind(evs, QueryFailed) != 0 {
		t.Fatal("countKind wrong")
	}
}

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
	if (QueryFinalize + 1).String() != "kind(11)" {
		t.Fatal("unknown kind should fall back")
	}
}

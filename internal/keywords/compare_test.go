package keywords_test

import (
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/keywords"
)

// TestCompareInlinedAllocatesNothing: a binary search over filenames in
// another package, the response index's lookup by name, allocates nothing
// where Compare is inlined into its comparison. Through slices.Compare,
// whose generic call moved both operands to the heap there, every probe
// allocated.
func TestCompareInlinedAllocatesNothing(t *testing.T) {
	names := make([]keywords.Filename, 64)
	for i := range names {
		names[i] = keywords.NewFilename(keywords.ID(i/8), keywords.ID(100+i%8))
	}
	byName := func(a, b keywords.Filename) int { return a.Compare(b) }
	for i, f := range names {
		if j, ok := slices.BinarySearchFunc(names, f, byName); !ok || j != i {
			t.Fatalf("%v: found at %d (%v), want %d", f, j, ok, i)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		slices.BinarySearchFunc(names, names[37], byName)
	})
	if allocs != 0 {
		t.Fatalf("a binary search over filenames made %v allocations, want 0", allocs)
	}
}

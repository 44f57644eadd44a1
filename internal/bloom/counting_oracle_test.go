package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanExport is the walk over all counters that Counting.Export ran at every
// peer every gossip round, kept as the reference for the live view the way
// the binary heapQueue stayed behind as the event queue's oracle.
func scanExport(c *Counting) *Filter {
	f := New(c.View().M(), c.View().K())
	for i, n := range c.counts {
		if n > 0 {
			f.setBit(uint32(i), true)
		}
	}
	return f
}

// driveCountingView interprets ops as a stream of (kind, word) byte pairs
// against one counting filter and checks after every operation that the
// live view equals the counter scan and that the mark is raised iff a bit
// flipped since the mark was last cleared. Besides Add and Remove — which on
// never-added words exercises the zero floor — the stream publishes
// (ClearChanged) and pins a word's counters at 65 535 so later Adds
// saturate.
func driveCountingView(t testing.TB, m, k, nWords int, ops []byte) {
	c := NewCounting(m, k)
	words := make([]string, nWords)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	want := scanExport(c)
	mark := false
	for i := 0; i+1 < len(ops); i += 2 {
		w := words[int(ops[i+1])%nWords]
		kind := ops[i] % 32
		switch {
		case kind < 14:
			c.Add(w)
		case kind < 27:
			c.Remove(w)
		case kind < 30:
			c.ClearChanged()
			mark = false
		default:
			c.Add(w)
			idx := make([]uint32, c.View().K())
			indexes(w, uint32(c.View().M()), idx)
			for _, p := range idx {
				c.counts[p] = ^uint16(0)
			}
		}
		got := scanExport(c)
		if !got.Equal(want) {
			mark = true
		}
		want = got
		if !c.View().Equal(want) {
			t.Fatalf("op %d (kind %d, %q): live view diverges from the counter scan", i/2, kind, w)
		}
		if c.Changed() != mark {
			t.Fatalf("op %d (kind %d, %q): Changed() = %v, want %v", i/2, kind, w, c.Changed(), mark)
		}
		if c.View().Test(w) != want.Test(w) {
			t.Fatalf("op %d (kind %d, %q): Test disagrees with the counter scan", i/2, kind, w)
		}
	}
}

// countingViewGeometries: the paper's filter, and a tiny one where nearly
// every word shares positions with another so 1→0 and 0→1 flips of shared
// counters are the common case.
var countingViewGeometries = []struct{ m, k, words int }{
	{1200, 8, 200},
	{64, 3, 40},
}

func TestCountingViewOracle(t *testing.T) {
	for _, g := range countingViewGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			ops := make([]byte, 2*4000)
			rand.New(rand.NewSource(seed)).Read(ops)
			driveCountingView(t, g.m, g.k, g.words, ops)
		}
	}
}

// TestCountingViewEdges pins the two cases the random streams reach only by
// chance: a saturated counter ignores further Adds and still clears only at
// zero, and Remove on a zero counter floors without touching view or mark.
func TestCountingViewEdges(t *testing.T) {
	c := NewCounting(64, 1)
	var idx [1]uint32
	indexes("x", 64, idx[:])
	p := idx[0]

	c.Remove("x")
	if c.Changed() || c.View().PopCount() != 0 || c.counts[p] != 0 {
		t.Fatal("Remove on a zero counter moved the filter")
	}
	c.Add("x")
	c.counts[p] = ^uint16(0)
	c.ClearChanged()
	c.Add("x")
	if c.counts[p] != ^uint16(0) || c.Changed() {
		t.Fatal("saturated Add wrapped or raised the mark")
	}
	c.Remove("x")
	if c.View().PopCount() != 1 || c.Changed() {
		t.Fatal("65535→65534 cleared the bit or raised the mark")
	}
}

func FuzzCountingView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 14, 1, 27, 0, 0, 1, 14, 1})    // add, remove, publish, add, remove
	f.Add([]byte{14, 7, 30, 7, 0, 7, 14, 7, 31, 0})   // floor, pin, saturate, remove, pin
	f.Add([]byte{0, 1, 0, 2, 27, 0, 14, 1, 0, 1, 27}) // cancelling pair between publishes
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range countingViewGeometries {
			driveCountingView(t, g.m, g.k, g.words, ops)
		}
	})
}

package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCounting is the reference multiset a counting filter must equal: one
// unbounded int per position, fed by indexes, floored at zero as Remove
// promises. Its bit view is position i set iff count[i] > 0.
type refCounting struct {
	m, k  int
	count []int
}

func (r *refCounting) apply(s string, delta int) {
	idx := make([]uint32, r.k)
	indexes(s, uint32(r.m), idx)
	for _, p := range idx {
		r.count[p] = max(r.count[p]+delta, 0)
	}
}

func (r *refCounting) view() *Filter {
	f := New(r.m, r.k)
	for i, n := range r.count {
		if n > 0 {
			f.setBit(uint32(i), true)
		}
	}
	return f
}

// driveCountingView interprets ops as a stream of (kind, word) byte pairs
// against one counting filter and checks after every operation that the
// live view equals the reference's and that the mark is raised iff a bit
// flipped since the mark was last cleared. Besides Add and Remove — which on
// never-added words exercises the zero floor — the stream publishes
// (ClearChanged) and adds a word 20 times, so counters cross the 4-bit
// range into the spill and later Removes come back out of it.
func driveCountingView(t testing.TB, m, k, nWords int, ops []byte) {
	c := NewCounting(m, k)
	ref := &refCounting{m: c.View().M(), k: c.View().K(), count: make([]int, c.View().M())}
	words := make([]string, nWords)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	want := ref.view()
	mark := false
	for i := 0; i+1 < len(ops); i += 2 {
		w := words[int(ops[i+1])%nWords]
		kind := ops[i] % 32
		switch {
		case kind < 14:
			c.Add(w)
			ref.apply(w, 1)
		case kind < 27:
			c.Remove(w)
			ref.apply(w, -1)
		case kind < 30:
			c.ClearChanged()
			mark = false
		default:
			for range 20 {
				c.Add(w)
				ref.apply(w, 1)
			}
		}
		got := ref.view()
		if !got.Equal(want) {
			mark = true
		}
		want = got
		if !c.View().Equal(want) {
			t.Fatalf("op %d (kind %d, %q): live view diverges from the reference counts", i/2, kind, w)
		}
		if c.Changed() != mark {
			t.Fatalf("op %d (kind %d, %q): Changed() = %v, want %v", i/2, kind, w, c.Changed(), mark)
		}
		if c.View().Test(w) != want.Test(w) {
			t.Fatalf("op %d (kind %d, %q): Test disagrees with the reference counts", i/2, kind, w)
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
// chance: a counter far past the 4-bit range keeps its bit through every
// Remove but the last and clears exactly at zero, leaving the spill empty;
// and Remove on a zero counter floors without touching view or mark.
func TestCountingViewEdges(t *testing.T) {
	c := NewCounting(64, 1)
	c.Remove("x")
	if c.Changed() || c.View().PopCount() != 0 {
		t.Fatal("Remove on a zero counter moved the filter")
	}
	for range 300 {
		c.Add("x")
	}
	c.ClearChanged()
	for range 299 {
		c.Remove("x")
	}
	if c.View().PopCount() != 1 || c.Changed() {
		t.Fatal("300 Adds then 299 Removes cleared the bit or raised the mark")
	}
	c.Remove("x")
	if c.View().PopCount() != 0 || !c.Changed() {
		t.Fatal("the 300th Remove did not clear the bit and raise the mark")
	}
	if len(c.over) != 0 {
		t.Fatalf("spill holds %d entries after every Add was removed", len(c.over))
	}
}

func FuzzCountingView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 14, 1, 27, 0, 0, 1, 14, 1})                 // add, remove, publish, add, remove
	f.Add([]byte{14, 7, 30, 7, 0, 7, 14, 7, 31, 0})                // floor, add ×20, add, remove, add ×20
	f.Add([]byte{0, 1, 0, 2, 27, 0, 14, 1, 0, 1, 27})              // cancelling pair between publishes
	f.Add([]byte{30, 3, 14, 3, 14, 3, 14, 3, 14, 3, 14, 3, 14, 3}) // add ×20, remove ×6: out of the spill to 14
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range countingViewGeometries {
			driveCountingView(t, g.m, g.k, g.words, ops)
		}
	})
}

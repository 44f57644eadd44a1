package sim

import "testing"

// TestPoolReuseAndGrowth: Put then Get hands back the same value, LIFO and
// as it was Put; fresh values are zero, distinct, and carved 64 to an
// allocation.
func TestPoolReuseAndGrowth(t *testing.T) {
	var p Pool[[4]int]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two live Gets returned the same value")
	}
	if *a != ([4]int{}) || *b != ([4]int{}) {
		t.Fatalf("fresh values not zero: %v %v", *a, *b)
	}
	a[0], b[0] = 1, 2
	p.Put(a)
	p.Put(b)
	if p.Len() != 2 {
		t.Fatalf("Len() = %d after two Puts, want 2", p.Len())
	}
	if got := p.Get(); got != b || got[0] != 2 {
		t.Fatal("Get after Put did not return the last value Put, unchanged")
	}
	if got := p.Get(); got != a || got[0] != 1 {
		t.Fatal("second Get did not return the first value Put")
	}
	if p.Len() != 0 {
		t.Fatalf("Len() = %d with everything handed out, want 0", p.Len())
	}

	// Growth: a block serves poolBlockLen Gets, and outstanding pointers
	// survive the move to the next block.
	var q Pool[[4]int]
	const runs = 10
	live := make([]*[4]int, 0, (runs+1)*poolBlockLen) // AllocsPerRun warms up once
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < poolBlockLen; i++ {
			v := q.Get()
			v[0] = len(live)
			live = append(live, v)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d fresh Gets cost %.1f allocations, want one block", poolBlockLen, allocs)
	}
	for i, v := range live {
		if v[0] != i {
			t.Fatalf("value %d clobbered after pool growth: %d", i, v[0])
		}
	}
	// The free list starts with a block's room: a fresh pool's first Get and
	// a block of Puts cost two allocations, not a block and seven doublings.
	if n := testing.AllocsPerRun(1, func() {
		var r Pool[[4]int]
		r.Get()
		for _, v := range live[:poolBlockLen] {
			r.Put(v)
		}
	}); n != 2 {
		t.Fatalf("a fresh pool's Get and a block of Puts cost %.1f allocations, want two", n)
	}
}

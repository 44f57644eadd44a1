package sim

// This file holds the engine's flat event storage. Events used to be
// individually heap-allocated and recycled through a pointer free list;
// they now live in slab-allocated arrays addressed by index handles. The
// drain loop walks contiguous memory instead of chasing pointers, the GC
// scans one object per slab instead of one per event, and a Timer can name
// its event as a compact (slab, index, generation) triple that stays valid
// to *interrogate* even after the storage behind it has been reaped.

const (
	// arenaSlabBits sizes one slab at 1<<arenaSlabBits events (~14 KiB of
	// event structs): large enough to amortise slab allocation to noise,
	// small enough that reaping tail slabs after a burst actually returns
	// memory in useful steps.
	arenaSlabBits = 8
	arenaSlabSize = 1 << arenaSlabBits
	arenaSlabMask = arenaSlabSize - 1
)

// eventRef addresses one event slot in an arena: slab index in the high
// bits, slot within the slab in the low arenaSlabBits. It is the handle
// stored in the event queue's entries and inside Timers.
type eventRef uint32

type eventSlab [arenaSlabSize]event

// eventArena is slab-backed storage for one engine's events. All access is
// engine-local (one arena per shard), so nothing here needs atomicity.
type eventArena struct {
	slabs []*eventSlab
	// free lists recycled slots, LIFO. Refs, not pointers: 4 bytes each and
	// invisible to the GC.
	free []eventRef
	// freeBySlab[i] counts free-listed slots in slab i; a tail slab whose
	// count reaches arenaSlabSize holds no live events and can be reaped.
	freeBySlab []int32
	// next is the bump pointer: slots [0, next) have been handed out at
	// least once, slots beyond live in the current tail slab untouched.
	next int
	// stamp issues a unique generation per allocation, so a stale Timer can
	// never match a later incarnation — not even one living in a slab that
	// was reaped and re-created at the same index.
	stamp uint64
}

// get resolves a ref to its event slot. The ref must be live or recently
// live; Timer paths bounds-check with valid first.
func (a *eventArena) get(r eventRef) *event {
	return &a.slabs[r>>arenaSlabBits][r&arenaSlabMask]
}

// valid reports whether r still addresses allocated storage (its slab has
// not been reaped).
func (a *eventArena) valid(r eventRef) bool {
	return int(r>>arenaSlabBits) < len(a.slabs)
}

// alloc hands out a slot: from the free list when one is available,
// otherwise from the bump region, growing by one slab when that is
// exhausted. The returned event carries a fresh generation and is
// otherwise uninitialised — the caller assigns every field.
func (a *eventArena) alloc() (eventRef, *event) {
	var r eventRef
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free = a.free[:n-1]
		a.freeBySlab[r>>arenaSlabBits]--
	} else {
		if a.next == len(a.slabs)*arenaSlabSize {
			a.slabs = append(a.slabs, new(eventSlab))
			a.freeBySlab = append(a.freeBySlab, 0)
		}
		r = eventRef(a.next)
		a.next++
	}
	ev := a.get(r)
	a.stamp++
	ev.gen = a.stamp
	ev.dead = false
	return r, ev
}

// release returns a slot to the free list. The event keeps its generation
// until the slot's next alloc stamps a fresh one; callers clear the
// reference-holding fields before releasing.
func (a *eventArena) release(r eventRef) {
	a.free = append(a.free, r)
	a.freeBySlab[r>>arenaSlabBits]++
}

// freeLen returns the recycled-slot count (the engine's pooled-event
// capacity, as surfaced by Engine.FreeListLen).
func (a *eventArena) freeLen() int { return len(a.free) }

// live returns the number of slots currently handed out.
func (a *eventArena) live() int { return a.next - len(a.free) }

// reap drops tail slabs that hold no live events until the free list is at
// or below maxFree, and returns the number of slots released back to the
// allocator. Only whole tail slabs can go — interior slabs may pin live
// events — so a reap is best-effort; after a burst fully drains, the tail
// of the arena is exactly the burst's slabs and the reap reclaims them.
func (a *eventArena) reap(maxFree int) int {
	dropped := 0
	for len(a.slabs) > 1 && len(a.free)-dropped > maxFree {
		last := len(a.slabs) - 1
		inTail := a.next - last*arenaSlabSize // handed-out slots in the tail slab
		if int(a.freeBySlab[last]) != inTail || inTail == 0 {
			break // tail slab holds live (or no) events; nothing to reap
		}
		a.slabs = a.slabs[:last]
		a.freeBySlab = a.freeBySlab[:last]
		a.next = last * arenaSlabSize
		dropped += inTail
	}
	if dropped == 0 {
		return 0
	}
	// One filter pass removes the reaped slabs' refs from the free list.
	kept := a.free[:0]
	limit := eventRef(a.next)
	for _, r := range a.free {
		if r < limit {
			kept = append(kept, r)
		}
	}
	a.free = kept
	return dropped
}

// Slab is a generic slab allocator for pooled values: it hands out *T
// pointers carved from fixed-size blocks instead of one heap object per
// value. Callers keep their own free lists (recycling is unchanged); Slab
// only replaces the cold-path `new(T)` so that pool growth costs one
// allocation per block, values sit contiguously for cache locality, and
// the GC scans block headers instead of thousands of individual objects.
// The zero value is ready to use.
type Slab[T any] struct {
	block []T
}

// slabBlockLen is the number of values carved from one block.
const slabBlockLen = 64

// New returns a pointer to a zero T with slab-backed storage. Previously
// returned pointers stay valid: a full block is abandoned to its
// outstanding pointers and a fresh one is carved.
func (s *Slab[T]) New() *T {
	if len(s.block) == cap(s.block) {
		s.block = make([]T, 0, slabBlockLen)
	}
	var zero T
	s.block = append(s.block, zero)
	return &s.block[len(s.block)-1]
}

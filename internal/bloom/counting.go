package bloom

// Counting is a counting Bloom filter: each position holds a counter rather
// than a bit, so elements can be removed. Locaware's filter "is built
// incrementally as new filenames are inserted in RI and existing ones
// discarded" (§4.2) — discarding requires deletion support, which a peer
// gets by keeping this counting filter locally. The plain bit vector it
// gossips (counter>0 → bit set) is kept current as counters cross zero, so
// publishing costs the bits that flipped, never a walk over the counters.
type Counting struct {
	counts []uint16
	// view is the live plain bit-vector view and carries the geometry;
	// changed is raised whenever one of its bits flips.
	view    Filter
	changed bool
}

// NewCounting returns an m-position counting filter with k hash functions;
// k is clamped to [1, 16] exactly as in New.
func NewCounting(m, k int) *Counting {
	view := New(m, k)
	return &Counting{counts: make([]uint16, view.m), view: *view}
}

// M returns the number of positions.
func (c *Counting) M() int { return int(c.view.m) }

// K returns the number of hash functions.
func (c *Counting) K() int { return c.view.k }

// Add inserts s, incrementing its k counters (saturating).
func (c *Counting) Add(s string) {
	var buf [maxK]uint32
	idx := buf[:c.view.k]
	indexes(s, c.view.m, idx)
	for _, i := range idx {
		if c.counts[i] == 0 {
			c.view.setBit(i, true)
			c.changed = true
		}
		if c.counts[i] < ^uint16(0) {
			c.counts[i]++
		}
	}
}

// Remove deletes one occurrence of s. Removing an element that was never
// added corrupts a counting filter; callers (the response index) guarantee
// add/remove pairing, and Remove defensively floors counters at zero.
func (c *Counting) Remove(s string) {
	var buf [maxK]uint32
	idx := buf[:c.view.k]
	indexes(s, c.view.m, idx)
	for _, i := range idx {
		if c.counts[i] == 1 {
			c.view.setBit(i, false)
			c.changed = true
		}
		if c.counts[i] > 0 {
			c.counts[i]--
		}
	}
}

// Test reports whether s may be present.
func (c *Counting) Test(s string) bool { return c.view.Test(s) }

// TestIndexes is Test by precomputed positions (see Filter.TestIndexes).
func (c *Counting) TestIndexes(idx []uint32) bool { return c.view.TestIndexes(idx) }

// View returns the live plain bit-vector view. It is read-only and changes
// with every Add/Remove/Reset; copy it to keep a snapshot.
func (c *Counting) View() *Filter { return &c.view }

// Changed reports whether a bit of the view flipped since ClearChanged. A
// flip that was later undone still counts: the mark says "diff me", the
// diff says what, if anything, to announce.
func (c *Counting) Changed() bool { return c.changed }

// ClearChanged lowers the mark; the publisher calls it once it has copied
// the view.
func (c *Counting) ClearChanged() { c.changed = false }

// Reset zeroes all counters.
func (c *Counting) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.view.Reset()
	c.changed = true
}

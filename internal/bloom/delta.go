package bloom

import "math/bits"

// Delta is the compact update of footnote 1 (§4.2): when a filename is
// added to or discarded from the response index, only a small number of
// bits flip in the gossiped bit vector, so a peer transmits the positions
// of the changed bits rather than the whole filter. For a 1200-bit vector
// each position needs 11 bits; the paper bounds an update at 12 positions
// (one filename = 3 keywords × ≤4 hash positions) ≈ 0.132 Kb.
type Delta struct {
	// Flipped lists the bit positions whose value changed.
	Flipped []uint32
	// M is the filter size the delta applies to.
	M uint32
}

// DiffFiltersInto computes the delta that transforms old into new,
// accumulating the flipped positions into buf (truncated, capacity reused;
// nil allocates), so a caller diffing every gossip round amortises the
// position buffer to zero steady-state allocations. The returned Delta
// aliases buf's backing array.
func DiffFiltersInto(oldF, newF *Filter, buf []uint32) (Delta, error) {
	if oldF.m != newF.m || oldF.k != newF.k {
		return Delta{}, ErrMismatch
	}
	d := Delta{M: oldF.m, Flipped: buf[:0]}
	for w := range oldF.bits {
		x := oldF.bits[w] ^ newF.bits[w]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			pos := uint32(w*64 + b)
			if pos < oldF.m {
				d.Flipped = append(d.Flipped, pos)
			}
			x &= x - 1
		}
	}
	return d, nil
}

// Apply flips the delta's positions in f, transforming the old vector into
// the new one. Applying a delta twice undoes it (XOR semantics).
func (d Delta) Apply(f *Filter) error {
	if f.m != d.M {
		return ErrMismatch
	}
	for _, pos := range d.Flipped {
		if pos >= f.m {
			return ErrMismatch
		}
		f.setBit(pos, !f.BitSet(int(pos)))
	}
	return nil
}

// SizeBits returns the encoded size of the delta in bits: one position
// costs ceil(log2(M)) bits. This is the quantity footnote 1 bounds.
func (d Delta) SizeBits() int {
	if len(d.Flipped) == 0 {
		return 0
	}
	perPos := bits.Len32(d.M - 1)
	return len(d.Flipped) * perPos
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Flipped) == 0 }

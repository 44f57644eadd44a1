package bloom

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Filter is a plain Bloom filter over strings: an m-bit vector with k hash
// functions. It never returns false negatives; it may return false
// positives (§4.2). This is the representation peers exchange with
// neighbours.
type Filter struct {
	m    uint32
	k    int
	bits []uint64
}

// ErrMismatch reports an operation across filters of different geometry.
var ErrMismatch = errors.New("bloom: filter geometry mismatch")

// New returns an m-bit filter with k hash functions. The paper's setting is
// m=1200 (covering an enlarged response index of 50 filenames × 3 keywords)
// with k near optimal for 150 elements. k is clamped to [1, 16]: the upper
// bound is what lets every filter operation compute its bit positions on
// the stack.
func New(m, k int) *Filter {
	if m < 8 {
		m = 8
	}
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}
	return &Filter{m: uint32(m), k: k, bits: make([]uint64, (m+63)/64)}
}

// M returns the filter size in bits.
func (f *Filter) M() int { return int(f.m) }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Add inserts s.
func (f *Filter) Add(s string) {
	var buf [maxK]uint32
	idx := buf[:f.k]
	indexes(s, f.m, idx)
	for _, i := range idx {
		f.bits[i/64] |= 1 << (i % 64)
	}
}

// AppendIndexes appends s's k bit positions in f's geometry to dst and
// returns the extended slice: the index form of a membership probe, for a
// caller that tests one string against many filters of one geometry and
// wants to hash it once.
func (f *Filter) AppendIndexes(dst []uint32, s string) []uint32 {
	n := len(dst)
	dst = slices.Grow(dst, f.k)[:n+f.k]
	indexes(s, f.m, dst[n:])
	return dst
}

// TestIndexes reports whether every position in idx is set. With the
// positions of one string (AppendIndexes) it is Test; with those of several
// it is the "BF matches q" predicate of §4.2 (all query keywords must be
// members). The positions must come from a filter of f's geometry.
func (f *Filter) TestIndexes(idx []uint32) bool {
	for _, i := range idx {
		if f.bits[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// Test reports whether s may be in the set. False means definitely absent.
func (f *Filter) Test(s string) bool {
	var buf [maxK]uint32
	idx := buf[:f.k]
	indexes(s, f.m, idx)
	return f.TestIndexes(idx)
}

// setBit forces bit i to v.
func (f *Filter) setBit(i uint32, v bool) {
	if v {
		f.bits[i/64] |= 1 << (i % 64)
	} else {
		f.bits[i/64] &^= 1 << (i % 64)
	}
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	c := 0
	for _, w := range f.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return float64(f.PopCount()) / float64(f.m) }

// Clone returns an independent copy.
func (f *Filter) Clone() *Filter {
	cp := &Filter{m: f.m, k: f.k, bits: make([]uint64, len(f.bits))}
	copy(cp.bits, f.bits)
	return cp
}

// Equal reports whether two filters have identical geometry and contents.
func (f *Filter) Equal(o *Filter) bool {
	if f.m != o.m || f.k != o.k {
		return false
	}
	for i := range f.bits {
		if f.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// CopyFrom overwrites f's contents with o's. Geometry must match.
func (f *Filter) CopyFrom(o *Filter) error {
	if f.m != o.m || f.k != o.k {
		return ErrMismatch
	}
	copy(f.bits, o.bits)
	return nil
}

// String summarises the filter.
func (f *Filter) String() string {
	return fmt.Sprintf("bloom{m=%d k=%d fill=%.3f}", f.m, f.k, f.FillRatio())
}

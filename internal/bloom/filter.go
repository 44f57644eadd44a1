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

// MinBits is the smallest filter NewTable builds: a smaller m is raised to it.
const MinBits = 8

// New returns an m-bit filter with k hash functions: a table of one
// (NewTable). The paper's setting is m=1200 (covering an enlarged response
// index of 50 filenames × 3 keywords) with k near optimal for 150 elements.
func New(m, k int) *Filter { return &NewTable(1, m, k)[0] }

// NewTable returns n empty m-bit filters with k hash functions in two
// allocations: the headers, and one bits array of which each filter holds a
// window capped at its own words. An m below MinBits is raised to it, and k
// is clamped to [1, 16], which lets every operation hash on the stack.
func NewTable(n, m, k int) []Filter {
	m = max(m, MinBits)
	k = min(max(k, 1), maxK)
	words := (m + 63) / 64
	bits := make([]uint64, n*words)
	fs := make([]Filter, n)
	for i := range fs {
		fs[i] = Filter{m: uint32(m), k: k, bits: bits[i*words : (i+1)*words : (i+1)*words]}
	}
	return fs
}

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

// Fold returns the OR of f's 64-bit words: bit b is set iff some position
// p ≡ b (mod 64) is. A set of positions that all pass TestIndexes has every
// bit of its FoldIndexes within f's fold, so a fold bit the filter lacks
// rules the set out without a probe.
func (f *Filter) Fold() (fold uint64) {
	for _, w := range f.bits {
		fold |= w
	}
	return fold
}

// FoldIndexes is the fold of a filter holding exactly the positions in idx.
func FoldIndexes(idx []uint32) (fold uint64) {
	for _, i := range idx {
		fold |= 1 << (i % 64)
	}
	return fold
}

// Test reports whether s may be in the set. False means definitely absent.
func (f *Filter) Test(s string) bool {
	var buf [maxK]uint32
	idx := buf[:f.k]
	indexes(s, f.m, idx)
	return f.TestIndexes(idx)
}

// Reset clears every bit, keeping the geometry.
func (f *Filter) Reset() { clear(f.bits) }

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

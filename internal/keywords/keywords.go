// Package keywords models filenames and keyword queries as defined in §3.3
// of the Locaware paper: a filename f is a set of K keywords drawn from a
// global pool; a query q is a random subset of 1..K of those keywords, and
// q is satisfied by any file whose filename contains all of q's keywords.
//
// The paper's evaluation uses a pool of 9000 keywords and filenames of
// exactly 3 keywords. A keyword is its index in the pool; its spelling,
// kw%05d, is produced only where a name is printed or hashed, so building,
// matching and ordering filenames compare integers.
package keywords

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
)

// MaxK is the most keywords a filename holds (§5.1 names every file with 3).
const MaxK = 3

// MaxPool is the largest pool whose keywords all spell at one width, "kw"
// and five digits: within it, id order is spelling order.
const MaxPool = 100_000

// ID is a keyword: its index in the pool.
type ID uint32

// AppendSpelling appends the keyword's spelling, kw%05d, to b.
func (id ID) AppendSpelling(b []byte) []byte {
	if id >= MaxPool {
		return strconv.AppendUint(append(b, "kw"...), uint64(id), 10)
	}
	return append(b, 'k', 'w', byte('0'+id/10000), byte('0'+id/1000%10),
		byte('0'+id/100%10), byte('0'+id/10%10), byte('0'+id%10))
}

// String returns the keyword's spelling.
func (id ID) String() string { return string(id.AppendSpelling(nil)) }

// set is 0..MaxK distinct keywords in ascending order: the canonical form a
// filename and a query share.
type set struct {
	ids [MaxK]ID
	n   uint8
}

// makeSet dedups and sorts kws. It panics on more than MaxK distinct
// keywords.
func makeSet(kws []ID) set {
	var s set
	for _, k := range kws {
		i, found := slices.BinarySearch(s.ids[:s.n], k)
		if found {
			continue
		}
		if s.n == MaxK {
			panic("keywords: more than MaxK distinct keywords")
		}
		copy(s.ids[i+1:], s.ids[i:s.n])
		s.ids[i] = k
		s.n++
	}
	return s
}

// K returns the number of keywords.
func (s set) K() int { return int(s.n) }

// KeywordAt returns the i-th keyword in canonical order.
func (s set) KeywordAt(i int) ID { return s.ids[:s.n][i] }

// Contains reports whether keyword k is one of the set's.
func (s set) Contains(k ID) bool { return slices.Contains(s.ids[:s.n], k) }

// appendName appends the canonical name: the spellings joined by sep.
func (s set) appendName(b []byte, sep byte) []byte {
	for i, k := range s.ids[:s.n] {
		if i > 0 {
			b = append(b, sep)
		}
		b = k.AppendSpelling(b)
	}
	return b
}

// hash is the 32-bit FNV-1a of the canonical name, spelt on the stack.
func (s set) hash() uint32 {
	var buf [MaxK * 8]byte
	h := uint32(2166136261)
	for _, c := range s.appendName(buf[:0], '_') {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Filename is a file's name, decomposed into its keywords ("filenames are
// broken into keywords following predefined rules", §3.1): a comparable
// value, equal for equal keyword sets. The hash of its canonical name, the
// sorted keywords' spellings joined by '_', is computed once: routing and
// caching decisions read it on every hop.
type Filename struct {
	set
	hash uint32
}

// NewFilename builds a filename from keywords, deduplicated and sorted. It
// panics on more than MaxK distinct keywords.
func NewFilename(kws ...ID) Filename {
	s := makeSet(kws)
	return Filename{set: s, hash: s.hash()}
}

// Hash returns the 32-bit FNV-1a of the canonical name.
func (f Filename) Hash() uint32 { return f.hash }

// Compare orders filenames as strings.Compare orders their canonical names
// (while every id is below MaxPool): keyword by keyword, a prefix first.
// slices.Compare would move both operands to the heap where this inlines.
func (f Filename) Compare(o Filename) int {
	for i := range min(f.n, o.n) {
		if c := cmp.Compare(f.ids[i], o.ids[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(f.n, o.n)
}

// AppendName appends the canonical name to b.
func (f Filename) AppendName(b []byte) []byte { return f.appendName(b, '_') }

// String returns the canonical name; spelling it allocates.
func (f Filename) String() string { return string(f.AppendName(nil)) }

// Matches reports whether the filename satisfies query q: every query
// keyword is contained in the filename (§3.1: "q can be satisfied by any
// file f which filename contains all keywords of q").
func (f Filename) Matches(q Query) bool {
	for _, k := range q.ids[:q.n] {
		if !f.Contains(k) {
			return false
		}
	}
	return q.n != 0
}

// Query is a keyword query: 1..K keywords from some target filename (§3.3).
type Query struct{ set }

// NewQuery builds a query from keywords, deduplicated and sorted. It panics
// on more than MaxK distinct keywords.
func NewQuery(kws ...ID) Query { return Query{makeSet(kws)} }

// Hash returns the hash of the query's keywords named as a filename.
func (q Query) Hash() uint32 { return q.hash() }

// String renders the query.
func (q Query) String() string { return string(q.AppendString(nil)) }

// AppendString appends String()'s rendering to b, for callers formatting
// into a reused scratch buffer.
func (q Query) AppendString(b []byte) []byte {
	return append(q.appendName(append(b, "q{"...), ','), '}')
}

// ExtractQuery draws a query of 1..K random keywords from filename f
// ("to express each query, we randomly choose 1 to 3 keywords from the
// queried filename", §5.1). It makes the draws r.Perm(K) would make,
// replaying its shuffle on f's keywords in a stack array.
func ExtractQuery(f Filename, r *rand.Rand) Query {
	if f.n == 0 {
		return Query{}
	}
	x := 1 + r.Intn(f.K())
	var kws [MaxK]ID
	for i, k := range f.ids[:f.n] {
		j := r.Intn(i + 1)
		kws[i], kws[j] = kws[j], k
	}
	return NewQuery(kws[:x]...)
}

// Pool is a fixed universe of keywords (the paper's pool of 9000): the ids
// below its size.
type Pool struct{ n int }

// NewPool returns the pool of n keywords.
func NewPool(n int) *Pool { return &Pool{n: n} }

// Size returns the pool's cardinality.
func (p *Pool) Size() int { return p.n }

// Keyword returns the spelling of the i-th keyword.
func (p *Pool) Keyword(i int) string { return ID(i).String() }

// RandomFilename draws a filename of exactly k distinct keywords from the
// pool ("each filename is formed of 3 keywords, randomly chosen from a pool
// of 9000", §5.1); k is clamped to the pool's size and must not exceed
// MaxK.
func (p *Pool) RandomFilename(k int, r *rand.Rand) Filename {
	var chosen [MaxK]ID
	n := 0
	for n < min(k, p.n) {
		if id := ID(r.Intn(p.n)); !slices.Contains(chosen[:n], id) {
			chosen[n] = id
			n++
		}
	}
	return NewFilename(chosen[:n]...)
}

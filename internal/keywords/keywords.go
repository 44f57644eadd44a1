// Package keywords models filenames and keyword queries as defined in §3.3
// of the Locaware paper: a filename f is a set of K keywords drawn from a
// global pool; a query q is a random subset of 1..K of those keywords, and
// q is satisfied by any file whose filename contains all of q's keywords.
//
// The paper's evaluation uses a pool of 9000 keywords and filenames of
// exactly 3 keywords.
package keywords

import (
	"fmt"
	"math/rand"
	"strings"
)

// Keyword is a single search term.
type Keyword string

// Filename is a file's name, decomposed into its keywords ("filenames are
// broken into keywords following predefined rules", §3.1). The canonical
// string form joins the sorted keywords with underscores; it is computed
// once at construction because the simulator hot path keys storage and
// caches by it on every hit and reverse-path hop.
type Filename struct {
	kws  []Keyword
	name string
}

// NewFilename builds a filename from keywords, deduplicating and sorting
// them so equal keyword sets compare equal.
func NewFilename(kws ...Keyword) Filename {
	out := make([]Keyword, 0, len(kws))
outer:
	for _, k := range kws {
		if k == "" {
			continue
		}
		for _, have := range out {
			if have == k {
				continue outer
			}
		}
		out = append(out, k)
	}
	// Insertion sort: filenames hold a handful of keywords and a manual
	// sort avoids sort.Slice's reflection swapper allocation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return Filename{kws: out, name: joinKeywords(out)}
}

func joinKeywords(kws []Keyword) string {
	switch len(kws) {
	case 0:
		return ""
	case 1:
		return string(kws[0])
	}
	n := len(kws) - 1
	for _, k := range kws {
		n += len(k)
	}
	var b strings.Builder
	b.Grow(n)
	for i, k := range kws {
		if i > 0 {
			b.WriteByte('_')
		}
		b.WriteString(string(k))
	}
	return b.String()
}

// K returns the number of keywords in the filename.
func (f Filename) K() int { return len(f.kws) }

// KeywordAt returns the i-th keyword in canonical order without copying
// the keyword slice.
func (f Filename) KeywordAt(i int) Keyword { return f.kws[i] }

// String returns the canonical filename string (precomputed at
// construction, so calls are allocation-free).
func (f Filename) String() string { return f.name }

// Contains reports whether the filename contains keyword k. Filenames hold
// a handful of keywords (three in the evaluation), so equality tests beat a
// binary search's ordered string compares.
func (f Filename) Contains(k Keyword) bool {
	for _, have := range f.kws {
		if have == k {
			return true
		}
	}
	return false
}

// Matches reports whether the filename satisfies query q: every query
// keyword is contained in the filename (§3.1: "q can be satisfied by any
// file f which filename contains all keywords of q").
func (f Filename) Matches(q Query) bool {
	if len(q.Kws) == 0 {
		return false
	}
	for _, k := range q.Kws {
		if !f.Contains(k) {
			return false
		}
	}
	return true
}

// Query is a keyword query: 1..K keywords from some target filename (§3.3).
type Query struct {
	Kws []Keyword
}

// NewQuery builds a query from keywords, deduplicated and sorted.
func NewQuery(kws ...Keyword) Query {
	f := NewFilename(kws...)
	return Query{Kws: f.kws}
}

// String renders the query.
func (q Query) String() string { return string(q.AppendString(nil)) }

// AppendString appends String()'s rendering to b, for callers formatting
// into a reused scratch buffer.
func (q Query) AppendString(b []byte) []byte {
	b = append(b, "q{"...)
	for i, k := range q.Kws {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, string(k)...)
	}
	return append(b, '}')
}

// ExtractQuery draws a query of 1..K random keywords from filename f
// ("to express each query, we randomly choose 1 to 3 keywords from the
// queried filename", §5.1).
func ExtractQuery(f Filename, r *rand.Rand) Query {
	k := f.K()
	if k == 0 {
		return Query{}
	}
	x := 1 + r.Intn(k)
	perm := r.Perm(k)
	kws := make([]Keyword, 0, x)
	for _, idx := range perm[:x] {
		kws = append(kws, f.kws[idx])
	}
	return NewQuery(kws...)
}

// Pool is a fixed universe of keywords (the paper's pool of 9000).
type Pool struct {
	kws []Keyword
}

// NewPool generates n synthetic keywords, deterministically.
func NewPool(n int) *Pool {
	kws := make([]Keyword, n)
	for i := range kws {
		kws[i] = Keyword(fmt.Sprintf("kw%05d", i))
	}
	return &Pool{kws: kws}
}

// Size returns the pool's cardinality.
func (p *Pool) Size() int { return len(p.kws) }

// Keyword returns the i-th keyword.
func (p *Pool) Keyword(i int) Keyword { return p.kws[i] }

// RandomFilename draws a filename of exactly k distinct keywords from the
// pool ("each filename is formed of 3 keywords, randomly chosen from a pool
// of 9000", §5.1).
func (p *Pool) RandomFilename(k int, r *rand.Rand) Filename {
	if k > len(p.kws) {
		k = len(p.kws)
	}
	chosen := make([]Keyword, 0, k)
	seen := make(map[int]bool, k)
	for len(chosen) < k {
		i := r.Intn(len(p.kws))
		if seen[i] {
			continue
		}
		seen[i] = true
		chosen = append(chosen, p.kws[i])
	}
	return NewFilename(chosen...)
}

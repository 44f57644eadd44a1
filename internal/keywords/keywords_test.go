package keywords

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewFilenameCanonical(t *testing.T) {
	a := NewFilename(25, 0, 12)
	b := NewFilename(12, 25, 0)
	if a != b {
		t.Fatalf("order-sensitive filenames: %v vs %v", a, b)
	}
	if a.String() != "kw00000_kw00012_kw00025" {
		t.Fatalf("canonical form = %q", a)
	}
	if a.K() != 3 {
		t.Fatalf("K = %d", a.K())
	}
}

func TestNewFilenameDedupAndEmpty(t *testing.T) {
	f := NewFilename(7, 7, 3)
	if f.K() != 2 {
		t.Fatalf("K = %d after dedup, want 2", f.K())
	}
	empty := NewFilename()
	if empty.K() != 0 || empty.String() != "" {
		t.Fatal("empty filename misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a fourth distinct keyword was accepted")
		}
	}()
	NewFilename(1, 2, 3, 4)
}

func TestContains(t *testing.T) {
	f := NewFilename(10, 20, 30)
	for _, k := range []ID{10, 20, 30} {
		if !f.Contains(k) {
			t.Fatalf("Contains(%v) false", k)
		}
	}
	if f.Contains(40) || f.Contains(0) {
		t.Fatal("spurious Contains")
	}
}

func TestMatches(t *testing.T) {
	f := NewFilename(1, 2, 3)
	cases := []struct {
		q    Query
		want bool
	}{
		{NewQuery(1), true},
		{NewQuery(1, 3), true},
		{NewQuery(1, 2, 3), true},
		{NewQuery(1, 4), false},
		{NewQuery(4), false},
		{Query{}, false}, // empty query matches nothing
	}
	for _, c := range cases {
		if got := f.Matches(c.q); got != c.want {
			t.Errorf("Matches(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQueryStringForms(t *testing.T) {
	q := NewQuery(2, 1)
	if q.String() != "q{kw00001,kw00002}" {
		t.Fatalf("String = %q", q.String())
	}
	if got := string(q.AppendString([]byte("x "))); got != "x q{kw00001,kw00002}" {
		t.Fatalf("AppendString = %q", got)
	}
	if got := (Query{}).String(); got != "q{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestExtractQuerySubset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := NewFilename(1, 2, 3)
	for i := 0; i < 500; i++ {
		q := ExtractQuery(f, r)
		if q.K() < 1 || q.K() > 3 {
			t.Fatalf("query size %d outside 1..3", q.K())
		}
		if !f.Matches(q) {
			t.Fatalf("extracted query %v does not match source filename", q)
		}
	}
}

func TestExtractQueryCoversAllSizes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := NewFilename(1, 2, 3)
	sizes := map[int]int{}
	for i := 0; i < 3000; i++ {
		sizes[ExtractQuery(f, r).K()]++
	}
	for x := 1; x <= 3; x++ {
		if sizes[x] == 0 {
			t.Fatalf("size %d never drawn: %v", x, sizes)
		}
	}
}

func TestExtractQueryEmptyFilename(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	q := ExtractQuery(Filename{}, r)
	if q.K() != 0 {
		t.Fatal("query from empty filename should be empty")
	}
}

func TestPoolPaperScale(t *testing.T) {
	p := NewPool(9000)
	if p.Size() != 9000 {
		t.Fatalf("size = %d", p.Size())
	}
	if p.Keyword(0) == p.Keyword(1) {
		t.Fatal("pool keywords not distinct")
	}
	if p.Keyword(8999) != "kw08999" {
		t.Fatalf("Keyword(8999) = %q", p.Keyword(8999))
	}
	r := rand.New(rand.NewSource(4))
	f := p.RandomFilename(3, r)
	if f.K() != 3 {
		t.Fatalf("filename K = %d, want 3", f.K())
	}
}

func TestRandomFilenameDistinctKeywords(t *testing.T) {
	p := NewPool(10)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		f := p.RandomFilename(3, r)
		if f.K() != 3 {
			t.Fatalf("duplicate keywords drawn: %v", f)
		}
	}
	// k larger than pool clamps.
	f := NewPool(2).RandomFilename(3, r)
	if f.K() != 2 {
		t.Fatalf("clamp failed: K = %d", f.K())
	}
}

func TestPoolDeterministic(t *testing.T) {
	a, b := NewPool(100), NewPool(100)
	for i := 0; i < 100; i++ {
		if a.Keyword(i) != b.Keyword(i) || a.Keyword(i) != fmt.Sprintf("kw%05d", i) {
			t.Fatal("pool not deterministic")
		}
	}
}

// Property: any subset query of a filename's keywords matches it; any query
// containing a foreign keyword does not.
func TestMatchesQuick(t *testing.T) {
	prop := func(mask uint8, foreign bool) bool {
		f := NewFilename(1, 2, 3)
		var kws []ID
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 {
				kws = append(kws, f.KeywordAt(i))
			}
		}
		if foreign {
			kws = append(kws[:min(len(kws), 2)], 99)
		}
		q := NewQuery(kws...)
		if q.K() == 0 {
			return !f.Matches(q)
		}
		return f.Matches(q) == !foreign
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// spelt is the string path the ids replaced: each keyword spelt with
// fmt, joined by sep.
func spelt(s set, sep string) string {
	words := make([]string, s.K())
	for i := range words {
		words[i] = fmt.Sprintf("kw%05d", s.KeywordAt(i))
	}
	return strings.Join(words, sep)
}

// fnvString is the 32-bit FNV-1a of s.
func fnvString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// TestIDsAgreeWithSpellings locks the interning to the strings it
// replaced, over pools at the paper's size and both ends of the allowed
// range: a filename or query spells and hashes as the joined kw%05d
// spellings did, and filename order is the order strings.Compare gives
// those spellings (storageMatch's smallest name, Lookup's sort and
// makeRoom's tie-break rely on it).
func TestIDsAgreeWithSpellings(t *testing.T) {
	for _, id := range []ID{MaxPool, 123456, 1<<32 - 1} {
		if got, want := id.String(), fmt.Sprintf("kw%05d", id); got != want {
			t.Fatalf("ID(%d) spells %q, want %q", id, got, want)
		}
	}
	for _, n := range []int{20, 9000, MaxPool} {
		r := rand.New(rand.NewSource(int64(n)))
		p := NewPool(n)
		for id := 0; id < n; id++ {
			if got, want := p.Keyword(id), fmt.Sprintf("kw%05d", id); got != want {
				t.Fatalf("pool %d: Keyword(%d) = %q, want %q", n, id, got, want)
			}
		}
		draw := func() set {
			kws := make([]ID, 1+r.Intn(MaxK))
			for i := range kws {
				kws[i] = ID(r.Intn(n))
			}
			return makeSet(kws)
		}
		for i := 0; i < 20000; i++ {
			a, b := draw(), draw()
			f := NewFilename(a.ids[:a.n]...)
			if f.String() != spelt(a, "_") || f.Hash() != fnvString(spelt(a, "_")) {
				t.Fatalf("pool %d: %v spells %q hash %d, want %q hash %d", n, a.ids[:a.n], f, f.Hash(), spelt(a, "_"), fnvString(spelt(a, "_")))
			}
			q := Query{a}
			if q.Hash() != f.Hash() || q.String() != "q{"+spelt(a, ",")+"}" {
				t.Fatalf("pool %d: query %v hashes or spells apart from its filename", n, q)
			}
			if got, want := f.Compare(NewFilename(b.ids[:b.n]...)), strings.Compare(spelt(a, "_"), spelt(b, "_")); got != want {
				t.Fatalf("pool %d: compare(%q, %q) = %d, strings.Compare %d", n, spelt(a, "_"), spelt(b, "_"), got, want)
			}
		}
	}
}

// extractQueryRef is ExtractQuery as it was written before the shuffle was
// replayed on the stack: through r.Perm.
func extractQueryRef(f Filename, r *rand.Rand) Query {
	k := f.K()
	if k == 0 {
		return Query{}
	}
	x := 1 + r.Intn(k)
	var kws []ID
	for _, idx := range r.Perm(k)[:x] {
		kws = append(kws, f.KeywordAt(idx))
	}
	return NewQuery(kws...)
}

// FuzzExtractQuery: the stack shuffle makes the draws r.Perm makes — the
// same query, and the stream left where r.Perm leaves it.
func FuzzExtractQuery(f *testing.F) {
	f.Add(int64(1), uint32(1), uint32(2), uint32(3))
	f.Add(int64(7), uint32(5), uint32(5), uint32(9))
	f.Add(int64(-3), uint32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, a, b, c uint32) {
		name := NewFilename(ID(a), ID(b), ID(c))
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			if q, ref := ExtractQuery(name, got), extractQueryRef(name, want); q != ref {
				t.Fatalf("draw %d from %v: %v, reference %v", i, name, q, ref)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("stream diverged after the draws: %d vs %d", g, w)
		}
	})
}

// randomFilenameRef is Pool.RandomFilename as it was written with a map of
// the drawn indexes.
func randomFilenameRef(n, k int, r *rand.Rand) Filename {
	var chosen []ID
	seen := map[int]bool{}
	for len(chosen) < min(k, n) {
		i := r.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		chosen = append(chosen, ID(i))
	}
	return NewFilename(chosen...)
}

// TestRandomFilenameMatchesMapDedup: scanning the drawn ids makes the same
// draws as deduplicating through a map, down to pools barely wider than a
// filename, where redraws are common.
func TestRandomFilenameMatchesMapDedup(t *testing.T) {
	for _, n := range []int{1, 3, 4, 20, 9000} {
		got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		p := NewPool(n)
		for i := 0; i < 2000; i++ {
			if f, ref := p.RandomFilename(3, got), randomFilenameRef(n, 3, want); f != ref {
				t.Fatalf("pool %d draw %d: %v, reference %v", n, i, f, ref)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("pool %d: stream diverged", n)
		}
	}
}

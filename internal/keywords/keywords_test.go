package keywords

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFilenameCanonical(t *testing.T) {
	a := NewFilename("zebra", "apple", "mango")
	b := NewFilename("mango", "zebra", "apple")
	if a.String() != b.String() {
		t.Fatalf("order-sensitive filenames: %q vs %q", a, b)
	}
	if a.String() != "apple_mango_zebra" {
		t.Fatalf("canonical form = %q", a)
	}
	if a.K() != 3 {
		t.Fatalf("K = %d", a.K())
	}
}

func TestNewFilenameDedupAndEmpty(t *testing.T) {
	f := NewFilename("dup", "dup", "", "other")
	if f.K() != 2 {
		t.Fatalf("K = %d after dedup, want 2", f.K())
	}
	empty := NewFilename()
	if empty.K() != 0 || empty.String() != "" {
		t.Fatal("empty filename misbehaves")
	}
}

func TestContains(t *testing.T) {
	f := NewFilename("alpha", "beta", "gamma")
	for _, k := range []Keyword{"alpha", "beta", "gamma"} {
		if !f.Contains(k) {
			t.Fatalf("Contains(%q) false", k)
		}
	}
	if f.Contains("delta") || f.Contains("") {
		t.Fatal("spurious Contains")
	}
}

func TestMatches(t *testing.T) {
	f := NewFilename("red", "green", "blue")
	cases := []struct {
		q    Query
		want bool
	}{
		{NewQuery("red"), true},
		{NewQuery("red", "blue"), true},
		{NewQuery("red", "green", "blue"), true},
		{NewQuery("red", "yellow"), false},
		{NewQuery("yellow"), false},
		{Query{}, false}, // empty query matches nothing
	}
	for _, c := range cases {
		if got := f.Matches(c.q); got != c.want {
			t.Errorf("Matches(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQueryStringForms(t *testing.T) {
	q := NewQuery("b", "a")
	if q.String() != "q{a,b}" {
		t.Fatalf("String = %q", q.String())
	}
	if got := string(q.AppendString([]byte("x "))); got != "x q{a,b}" {
		t.Fatalf("AppendString = %q", got)
	}
	if got := (Query{}).String(); got != "q{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestExtractQuerySubset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := NewFilename("one", "two", "three")
	for i := 0; i < 500; i++ {
		q := ExtractQuery(f, r)
		if len(q.Kws) < 1 || len(q.Kws) > 3 {
			t.Fatalf("query size %d outside 1..3", len(q.Kws))
		}
		if !f.Matches(q) {
			t.Fatalf("extracted query %v does not match source filename", q)
		}
	}
}

func TestExtractQueryCoversAllSizes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := NewFilename("one", "two", "three")
	sizes := map[int]int{}
	for i := 0; i < 3000; i++ {
		sizes[len(ExtractQuery(f, r).Kws)]++
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
	if len(q.Kws) != 0 {
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
	f := p.RandomFilename(50, r)
	if f.K() != 10 {
		t.Fatalf("clamp failed: K = %d", f.K())
	}
}

func TestPoolDeterministic(t *testing.T) {
	a, b := NewPool(100), NewPool(100)
	for i := 0; i < 100; i++ {
		if a.Keyword(i) != b.Keyword(i) {
			t.Fatal("pool not deterministic")
		}
	}
}

// Property: any subset query of a filename's keywords matches it; any query
// containing a foreign keyword does not.
func TestMatchesQuick(t *testing.T) {
	prop := func(mask uint8, foreign bool) bool {
		f := NewFilename("k1", "k2", "k3")
		var kws []Keyword
		all := f.kws
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 {
				kws = append(kws, all[i])
			}
		}
		if foreign {
			kws = append(kws, "foreign")
		}
		q := NewQuery(kws...)
		if len(q.Kws) == 0 {
			return !f.Matches(q)
		}
		return f.Matches(q) == !foreign
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/p2prepro/locaware/internal/keywords"
)

func paperCatalog(seed int64) (*Catalog, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	return NewCatalog(DefaultCatalog(), r), r
}

// allFiles lists every file of c in id order, the target set of a
// generator over the whole catalogue.
func allFiles(c *Catalog) []FileID {
	ids := make([]FileID, c.Size())
	for i := range ids {
		ids[i] = FileID(i)
	}
	return ids
}

func TestCatalogPaperScale(t *testing.T) {
	c, _ := paperCatalog(1)
	if c.Size() != 3000 {
		t.Fatalf("size = %d, want 3000", c.Size())
	}
	if c.Pool().Size() != 9000 {
		t.Fatalf("pool = %d, want 9000", c.Pool().Size())
	}
	seen := map[string]bool{}
	for id := 0; id < c.Size(); id++ {
		f := c.File(FileID(id))
		if f.K() != 3 {
			t.Fatalf("file %d has %d keywords", id, f.K())
		}
		name := f.String()
		if seen[name] {
			t.Fatalf("duplicate filename %q", name)
		}
		seen[name] = true
	}
}

// TestCatalogLookup: the catalogue resolves a filename it holds to that
// file's id, so adding it again is refused.
func TestCatalogLookup(t *testing.T) {
	c, _ := paperCatalog(2)
	f := c.File(42)
	if id, ok := c.Add(f); ok || id != 42 {
		t.Fatalf("Add(%q) of file 42 = %d,%v", f.String(), id, ok)
	}
	if c.Size() != 3000 {
		t.Fatalf("refused Add grew the catalogue to %d", c.Size())
	}
}

// fileKeywords lists f's keywords in canonical order.
func fileKeywords(f keywords.Filename) []keywords.ID {
	kws := make([]keywords.ID, f.K())
	for i := range kws {
		kws[i] = f.KeywordAt(i)
	}
	return kws
}

func TestMatchingFilesGroundTruth(t *testing.T) {
	c, r := paperCatalog(4)
	// A full-filename query must match at least its own file.
	for trial := 0; trial < 50; trial++ {
		id := FileID(r.Intn(c.Size()))
		f := c.File(id)
		q := keywords.NewQuery(fileKeywords(f)...)
		matches := c.MatchingFiles(q)
		found := false
		for _, m := range matches {
			if m == id {
				found = true
			}
			if !c.File(m).Matches(q) {
				t.Fatalf("MatchingFiles returned non-match %d", m)
			}
		}
		if !found {
			t.Fatalf("file %d not among matches of its own full query", id)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	z := NewZipf(3000, 0.8, r)
	if z.n != 3000 || z.s != 0.8 {
		t.Fatalf("params: n=%d s=%v", z.n, z.s)
	}
	counts := make([]int, 3000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 3000 {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	frac := float64(top10) / draws
	// With s=0.8 over 3000 ranks the top 10 files draw a visibly
	// disproportionate share (uniform would give 0.0033).
	if frac < 0.05 {
		t.Fatalf("top-10 share %.4f — distribution not skewed", frac)
	}
	if counts[0] < counts[2999] {
		t.Fatal("rank 0 less popular than rank 2999")
	}
}

func TestZipfHeavyExponentUsesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	z := NewZipf(100, 1.5, r)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] < counts[50] {
		t.Fatal("s=1.5 distribution not decreasing")
	}
}

func TestZipfS1LogForm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	z := NewZipf(1000, 1.0, r)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] == 0 || counts[0] < counts[500] {
		t.Fatalf("s=1 head not heavy: head=%d mid=%d", counts[0], counts[500])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	z := NewZipf(0, 0.8, r)
	if z.n != 1 {
		t.Fatalf("n = %d, want clamped 1", z.n)
	}
	for i := 0; i < 10; i++ {
		if z.Draw(r) != 0 {
			t.Fatal("single-rank zipf must always draw 0")
		}
	}
}

func TestZipfQuickInRange(t *testing.T) {
	prop := func(nRaw uint16, sRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%5000
		s := 0.1 + float64(sRaw%30)/10 // 0.1 .. 3.0
		r := rand.New(rand.NewSource(seed))
		z := NewZipf(n, s, r)
		for i := 0; i < 50; i++ {
			k := z.Draw(r)
			if k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementPaperScale(t *testing.T) {
	c, r := paperCatalog(9)
	pl := NewPlacement(1000, 3, c, r)
	for p := 0; p < 1000; p++ {
		files := pl.Files(p)
		if len(files) != 3 {
			t.Fatalf("peer %d shares %d files", p, len(files))
		}
		seen := map[FileID]bool{}
		for _, f := range files {
			if f < 0 || int(f) >= c.Size() {
				t.Fatalf("file id %d out of range", f)
			}
			if seen[f] {
				t.Fatalf("peer %d shares duplicate file %d", p, f)
			}
			seen[f] = true
		}
	}
}

func TestPlacementProvidersConsistent(t *testing.T) {
	c, r := paperCatalog(10)
	pl := NewPlacement(200, 3, c, r)
	prov := pl.Providers()
	total := 0
	for f, peers := range prov {
		total += len(peers)
		for _, p := range peers {
			found := false
			for _, g := range pl.Files(p) {
				if g == f {
					found = true
				}
			}
			if !found {
				t.Fatalf("provider map lists peer %d for file %d it does not share", p, f)
			}
		}
	}
	if total != 600 {
		t.Fatalf("provider entries = %d, want 600", total)
	}
}

func TestPlacementFilesReturnsCopy(t *testing.T) {
	c, r := paperCatalog(11)
	pl := NewPlacement(5, 3, c, r)
	fs := pl.Files(0)
	fs[0] = -99
	if pl.Files(0)[0] == -99 {
		t.Fatal("Files exposed internal storage")
	}
}

func TestGeneratorRateAndAttribution(t *testing.T) {
	c, r := paperCatalog(13)
	g := NewGeneratorOver(1000, DefaultGen(), c, allFiles(c), r)
	if math.Abs(g.AggregateRate()-0.83) > 1e-9 {
		t.Fatalf("aggregate rate = %v, want 0.83", g.AggregateRate())
	}
	events := make([]QueryEvent, 5000)
	for i := range events {
		events[i] = g.Next()
	}
	var prev QueryEvent
	requesters := map[int]bool{}
	for i, ev := range events {
		if i > 0 && ev.At < prev.At {
			t.Fatal("event times not monotone")
		}
		if ev.Requester < 0 || ev.Requester >= 1000 {
			t.Fatalf("requester %d out of range", ev.Requester)
		}
		if ev.Q.K() < 1 || ev.Q.K() > 3 {
			t.Fatalf("query size %d", ev.Q.K())
		}
		if len(c.MatchingFiles(ev.Q)) == 0 {
			t.Fatal("query matches no catalogue file")
		}
		requesters[ev.Requester] = true
		prev = ev
	}
	if len(requesters) < 900 {
		t.Fatalf("only %d distinct requesters in 5000 events", len(requesters))
	}
	// Mean inter-arrival should be ~1/0.83 s = ~1.2 s.
	meanGap := events[len(events)-1].At.Seconds() / float64(len(events))
	if meanGap < 0.8 || meanGap > 1.7 {
		t.Fatalf("mean inter-arrival %.3fs, want ~1.2s", meanGap)
	}
}

func TestGeneratorZipfTargetSkew(t *testing.T) {
	c, r := paperCatalog(14)
	g := NewGeneratorOver(1000, DefaultGen(), c, allFiles(c), r)
	counts := map[FileID]int{}
	for i := 0; i < 20000; i++ {
		q := g.Next().Q
		for _, id := range []FileID{0, 2500} {
			if c.File(id).Matches(q) {
				counts[id]++
			}
		}
	}
	if counts[0] <= counts[2500] {
		t.Fatalf("popularity not skewed: head=%d tail=%d", counts[0], counts[2500])
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	c1, r1 := paperCatalog(15)
	c2, r2 := paperCatalog(15)
	g1 := NewGeneratorOver(100, DefaultGen(), c1, allFiles(c1), r1)
	g2 := NewGeneratorOver(100, DefaultGen(), c2, allFiles(c2), r2)
	for i := 0; i < 200; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("generators diverged at %d", i)
		}
	}
}

// bruteMatch is the reference linear scan the inverted index replaced.
func bruteMatch(c *Catalog, q keywords.Query) []FileID {
	var out []FileID
	for id := 0; id < c.Size(); id++ {
		if c.File(FileID(id)).Matches(q) {
			out = append(out, FileID(id))
		}
	}
	return out
}

func TestMatchingFilesEqualsLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := NewCatalog(CatalogConfig{NumFiles: 400, KeywordPool: 300, KeywordsPerFile: 3}, r)
	for i := 0; i < 500; i++ {
		f := c.File(FileID(r.Intn(c.Size())))
		q := keywords.ExtractQuery(f, r)
		got, want := c.MatchingFiles(q), bruteMatch(c, q)
		if len(got) != len(want) {
			t.Fatalf("query %v: index found %d files, scan %d", q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %v: index order %v != scan order %v", q, got, want)
			}
		}
	}
	// Queries with keywords outside the pool match nothing, cheaply.
	if got := c.MatchingFiles(keywords.NewQuery(1, 300)); got != nil {
		t.Fatalf("unknown keyword matched %v", got)
	}
	if got := c.MatchingFiles(keywords.Query{}); got != nil {
		t.Fatalf("empty query matched %v", got)
	}
}

func TestCatalogAddIndexesNewFiles(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := NewCatalog(CatalogConfig{NumFiles: 50, KeywordPool: 200, KeywordsPerFile: 3}, r)
	f := keywords.NewFilename(197, 198, 199)
	id, ok := c.Add(f)
	if !ok || int(id) != c.Size()-1 {
		t.Fatalf("Add returned (%d, %v), want fresh tail id", id, ok)
	}
	if id2, ok2 := c.Add(f); ok2 || id2 != id {
		t.Fatalf("duplicate Add returned (%d, %v)", id2, ok2)
	}
	got := c.MatchingFiles(keywords.NewQuery(197, 199))
	if len(got) != 1 || got[0] != id {
		t.Fatalf("injected file not found via index: %v", got)
	}
	if got := c.File(id); got.String() != f.String() {
		t.Fatalf("File(%d) = %q, want %q", id, got.String(), f.String())
	}
}

func TestCatalogNewFilesUniqueAndQueryable(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := NewCatalog(CatalogConfig{NumFiles: 100, KeywordPool: 150, KeywordsPerFile: 3}, r)
	before := c.Size()
	ids := c.NewFiles(25, r)
	if len(ids) != 25 || c.Size() != before+25 {
		t.Fatalf("NewFiles grew catalogue %d -> %d with %d ids", before, c.Size(), len(ids))
	}
	for _, id := range ids {
		f := c.File(id)
		got := c.MatchingFiles(keywords.NewQuery(fileKeywords(f)...))
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("injected file %d (%s) not satisfiable", id, f)
		}
	}
}

// TestCatalogConfigValidate locks the capacity check: a catalogue needs
// NumFiles distinct filenames and a pool of n keywords holds only C(n, k)
// of them (k clamped to n, as Pool.RandomFilename clamps it). Before the
// check, the rejected rows made NewCatalog spin forever.
func TestCatalogConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		pool, files int
		ok          bool
	}{
		{20, 3000, false}, // C(20,3) = 1140
		{2, 10, false},    // width clamps to 2: one filename
		{3, 2, false},     // C(3,3) = 1
		{3, 1, true},
		{30, 3000, true}, // C(30,3) = 4060
		{DefaultCatalog().KeywordPool, DefaultCatalog().NumFiles, true},
		{keywords.MaxPool, math.MaxInt, false}, // C(100000,3) ≈ 1.7e14 fits an int
	} {
		cfg := CatalogConfig{NumFiles: tc.files, KeywordPool: tc.pool, KeywordsPerFile: 3}
		err := cfg.Validate()
		if tc.ok != (err == nil) {
			t.Fatalf("pool %d files %d: accepted=%v, want %v (%v)", tc.pool, tc.files, err == nil, tc.ok, err)
		}
		if err != nil && !(strings.Contains(err.Error(), fmt.Sprintf("KeywordPool %d", tc.pool)) &&
			strings.Contains(err.Error(), fmt.Sprintf("Files %d", tc.files))) {
			t.Fatalf("pool %d files %d: error does not name both fields and values: %v", tc.pool, tc.files, err)
		}
	}
}

// TestCatalogConfigValidateBounds: a pool wider than keywords.MaxPool
// would spell its keywords at two widths, and a filename holds at most
// keywords.MaxK keywords; each is refused naming the field and the value.
func TestCatalogConfigValidateBounds(t *testing.T) {
	for _, tc := range []struct {
		cfg  CatalogConfig
		want string
	}{
		{CatalogConfig{NumFiles: 3000, KeywordPool: keywords.MaxPool + 1, KeywordsPerFile: 3}, "KeywordPool 100001"},
		{CatalogConfig{NumFiles: 3000, KeywordPool: 2_000_000_000, KeywordsPerFile: 3}, "KeywordPool 2000000000"},
		{CatalogConfig{NumFiles: 3000, KeywordPool: 9000, KeywordsPerFile: 4}, "KeywordsPerFile 4"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v, want one naming %q", tc.cfg, err, tc.want)
		}
	}
	if err := (CatalogConfig{NumFiles: 3000, KeywordPool: keywords.MaxPool, KeywordsPerFile: 3}).Validate(); err != nil {
		t.Fatalf("the widest pool was refused: %v", err)
	}
}

// TestCatalogNewFilesStopsWhenExhausted: a pool of 5 keywords holds
// C(5,3) = 10 filenames, so a catalogue of 8 has room for two more and an
// injection of 5 returns those two instead of searching for a third.
func TestCatalogNewFilesStopsWhenExhausted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := NewCatalog(CatalogConfig{NumFiles: 8, KeywordPool: 5, KeywordsPerFile: 3}, r)
	if ids := c.NewFiles(5, r); len(ids) != 2 || c.Size() != 10 {
		t.Fatalf("NewFiles(5) on a catalogue with room for 2 returned %d ids, size %d", len(ids), c.Size())
	}
	if ids := c.NewFiles(1, r); len(ids) != 0 {
		t.Fatalf("NewFiles on a full name space returned %d ids", len(ids))
	}
}

func TestGeneratorDynamics(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	c := NewCatalog(CatalogConfig{NumFiles: 60, KeywordPool: 120, KeywordsPerFile: 3}, r)
	g := NewGeneratorOver(40, GenConfig{RatePerPeer: 0.01, ZipfS: 1.0}, c, allFiles(c), rand.New(rand.NewSource(11)))

	base := g.AggregateRate()
	g.SetRateFactor(4)
	if g.AggregateRate() != 4*base {
		t.Fatalf("rate at factor 4: %v, want %v", g.AggregateRate(), 4*base)
	}
	g.SetRateFactor(0) // ignored
	if g.AggregateRate() != 4*base {
		t.Fatal("non-positive rate factor not ignored")
	}
	g.SetRateFactor(1)
	if g.AggregateRate() != base {
		t.Fatal("rate factor 1 must restore the base rate")
	}

	// Promoting a hot set re-ranks popularity: with a steep exponent the
	// head files dominate draws.
	hot := []FileID{41, 17, 53}
	rest := g.Targets()
	g.SetTargets(append(append([]FileID{}, hot...), rest...))
	g.SetZipfS(1.5)
	if g.ZipfS() != 1.5 {
		t.Fatalf("ZipfS() = %v after SetZipfS(1.5) — calm events restore via this getter", g.ZipfS())
	}
	// A query matches the file it was drawn for, so draws that match a hot
	// file bound the hot set's draws from above.
	hotDraws := 0
	for i := 0; i < 3000; i++ {
		q := g.Next().Q
		if c.File(41).Matches(q) || c.File(17).Matches(q) || c.File(53).Matches(q) {
			hotDraws++
		}
	}
	if hotDraws < 1500 {
		t.Fatalf("hot set drew only %d of 3000 with s=1.5", hotDraws)
	}

	// Injected targets become drawable.
	ids := c.NewFiles(1, r)
	g.AddTargets(ids...)
	seen := false
	for i := 0; i < 20000 && !seen; i++ {
		seen = c.File(ids[0]).Matches(g.Next().Q)
	}
	if !seen {
		t.Fatalf("injected target %d never drawn", ids[0])
	}
}

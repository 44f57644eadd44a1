package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// providers is f's live provider list at now, most recent first, as Lookup
// answers a query naming every keyword of f (nil when f is not cached or
// its providers expired).
func providers(x *Index, f keywords.Filename, now sim.Time) []Provider {
	ids := make([]keywords.ID, f.K())
	for i := range ids {
		ids[i] = f.KeywordAt(i)
	}
	for _, m := range x.Lookup(keywords.NewQuery(ids...), now) {
		if m.File.Compare(f) == 0 {
			return m.Providers
		}
	}
	return nil
}

type recorder struct {
	added, evicted []string
}

func (r *recorder) FilenameAdded(f keywords.Filename)   { r.added = append(r.added, f.String()) }
func (r *recorder) FilenameEvicted(f keywords.Filename) { r.evicted = append(r.evicted, f.String()) }

func fn(kws ...keywords.ID) keywords.Filename { return keywords.NewFilename(kws...) }

// TestTableIndexesAreIndependent: a Put into index i of a table caches in
// i alone, and only i's listener hears it. The indexes of a table carve
// their first windows from one shared block: a first Put into each of 64
// costs two allocations in all, where an index made lazily on its own
// would cost at least one each.
func TestTableIndexesAreIndependent(t *testing.T) {
	const n = 4
	f := fn(1, 2, 3)
	for i := 0; i < n; i++ {
		recs := make([]recorder, n)
		xs := NewTable(n, DefaultConfig(), func(j int) Events { return &recs[j] })
		xs[i].Put(f, overlay.PeerID(i), 0, sim.Second)
		for j := range xs {
			want := 0
			if j == i {
				want = 1
			}
			if xs[j].Len() != want || len(recs[j].added) != want {
				t.Fatalf("after a Put into index %d: index %d holds %d filenames and heard %d adds, want %d",
					i, j, xs[j].Len(), len(recs[j].added), want)
			}
		}
		if ps := providers(&xs[i], f, sim.Second); len(ps) != 1 || ps[0].Peer != overlay.PeerID(i) {
			t.Fatalf("index %d: providers %+v, want peer %d alone", i, ps, i)
		}
	}
	if x := NewTable(1, DefaultConfig(), func(int) Events { return nil }); x[0].events != (nopEvents{}) {
		t.Fatalf("a nil listener became %T, want nopEvents", x[0].events)
	}
	table := func() []Index { return NewTable(64, DefaultConfig(), func(int) Events { return nil }) }
	built := testing.AllocsPerRun(10, func() { table() })
	filled := testing.AllocsPerRun(10, func() {
		xs := table()
		for i := range xs {
			xs[i].Put(f, overlay.PeerID(i), 0, sim.Second)
		}
	})
	if filled-built > 2 {
		t.Fatalf("a first Put into each of 64 indexes of a table made %v allocations, want at most 2", filled-built)
	}
}

func TestPutAndProviders(t *testing.T) {
	x := New(DefaultConfig(), nil)
	f := fn(1, 2, 3)
	x.Put(f, 7, 3, 100*sim.Second)
	ps := providers(x, f, 100*sim.Second)
	if len(ps) != 1 || ps[0].Peer != 7 || ps[0].LocID != 3 {
		t.Fatalf("providers = %+v", ps)
	}
	if x.Len() != 1 || x.Inserts() != 1 {
		t.Fatalf("len=%d inserts=%d", x.Len(), x.Inserts())
	}
}

func TestMostRecentFirst(t *testing.T) {
	x := New(DefaultConfig(), nil)
	f := fn(24, 25, 26)
	for i := 0; i < 4; i++ {
		x.Put(f, overlay.PeerID(i), netmodel.LocID(i), sim.Time(i)*sim.Second)
	}
	ps := providers(x, f, 10*sim.Second)
	if len(ps) != 4 {
		t.Fatalf("len = %d", len(ps))
	}
	for i := 0; i < 4; i++ {
		if ps[i].Peer != overlay.PeerID(3-i) {
			t.Fatalf("order wrong at %d: %+v", i, ps)
		}
	}
}

func TestProviderCapDropsOldest(t *testing.T) {
	cfg := Config{MaxFilenames: 10, MaxProvidersPerFile: 3}
	x := New(cfg, nil)
	f := fn(16, 17, 18)
	for i := 0; i < 5; i++ {
		x.Put(f, overlay.PeerID(i), 0, sim.Time(i)*sim.Second)
	}
	ps := providers(x, f, 10*sim.Second)
	if len(ps) != 3 {
		t.Fatalf("provider list = %d, want 3", len(ps))
	}
	// Peers 4, 3, 2 survive; 0 and 1 (oldest) dropped — "most recent
	// entries replace the oldest ones" (§4.1.2).
	want := []overlay.PeerID{4, 3, 2}
	for i, w := range want {
		if ps[i].Peer != w {
			t.Fatalf("ps = %+v", ps)
		}
	}
}

func TestRefreshMovesToFront(t *testing.T) {
	x := New(DefaultConfig(), nil)
	f := fn(13, 14, 15)
	x.Put(f, 1, 5, 1*sim.Second)
	x.Put(f, 2, 5, 2*sim.Second)
	x.Put(f, 1, 6, 3*sim.Second) // refresh peer 1 with new locId
	ps := providers(x, f, 5*sim.Second)
	if len(ps) != 2 {
		t.Fatalf("refresh duplicated entry: %+v", ps)
	}
	if ps[0].Peer != 1 || ps[0].LocID != 6 || ps[0].LastSeen != 3*sim.Second {
		t.Fatalf("refresh did not update front: %+v", ps[0])
	}
	if x.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", x.Refreshes())
	}
}

func TestFilenameLRUEviction(t *testing.T) {
	rec := &recorder{}
	cfg := Config{MaxFilenames: 3, MaxProvidersPerFile: 5}
	x := New(cfg, rec)
	f1, f2, f3, f4 := fn(101), fn(102), fn(103), fn(104)
	x.Put(f1, 1, 0, 1*sim.Second)
	x.Put(f2, 1, 0, 2*sim.Second)
	x.Put(f3, 1, 0, 3*sim.Second)
	x.Put(f1, 2, 0, 4*sim.Second) // touch f1 so f2 becomes LRU
	x.Put(f4, 1, 0, 5*sim.Second)
	if x.Len() != 3 {
		t.Fatalf("len = %d", x.Len())
	}
	if providers(x, f2, 6*sim.Second) != nil {
		t.Fatal("f2 should have been evicted (LRU)")
	}
	if providers(x, f1, 6*sim.Second) == nil {
		t.Fatal("recently touched f1 evicted")
	}
	if len(rec.added) != 4 || len(rec.evicted) != 1 || rec.evicted[0] != f2.String() {
		t.Fatalf("events: added=%v evicted=%v", rec.added, rec.evicted)
	}
}

func TestTTLExpiry(t *testing.T) {
	rec := &recorder{}
	cfg := Config{MaxFilenames: 10, MaxProvidersPerFile: 5, TTL: 10 * sim.Second}
	x := New(cfg, rec)
	f := fn(201, 202)
	x.Put(f, 1, 0, 0)
	x.Put(f, 2, 0, 8*sim.Second)
	ps := providers(x, f, 15*sim.Second)
	if len(ps) != 1 || ps[0].Peer != 2 {
		t.Fatalf("expiry wrong: %+v", ps)
	}
	// All providers stale -> filename disappears and event fires.
	if got := providers(x, f, 60*sim.Second); got != nil {
		t.Fatalf("stale entry survived: %+v", got)
	}
	if x.Len() != 0 {
		t.Fatal("empty entry not removed")
	}
	if len(rec.evicted) != 1 {
		t.Fatalf("eviction event missing: %v", rec.evicted)
	}
}

func TestTTLDisabled(t *testing.T) {
	cfg := Config{MaxFilenames: 10, MaxProvidersPerFile: 5, TTL: 0}
	x := New(cfg, nil)
	f := fn(301)
	x.Put(f, 1, 0, 0)
	if ps := providers(x, f, 1000*sim.Hour); len(ps) != 1 {
		t.Fatal("TTL=0 should never expire")
	}
}

func TestLookupKeywordSubset(t *testing.T) {
	x := New(DefaultConfig(), nil)
	x.Put(fn(1, 2, 3), 1, 0, sim.Second)
	x.Put(fn(1, 4, 5), 2, 0, sim.Second)
	x.Put(fn(6, 7), 3, 0, sim.Second)

	ms := x.Lookup(keywords.NewQuery(1), 2*sim.Second)
	if len(ms) != 2 {
		t.Fatalf("lookup(red) = %d matches", len(ms))
	}
	ms = x.Lookup(keywords.NewQuery(1, 2), 2*sim.Second)
	if len(ms) != 1 || ms[0].File.String() != "kw00001_kw00002_kw00003" {
		t.Fatalf("lookup(red,green) = %+v", ms)
	}
	if got := x.Lookup(keywords.NewQuery(99), 2*sim.Second); got != nil {
		t.Fatalf("phantom match: %+v", got)
	}
	if got := x.Lookup(keywords.Query{}, 2*sim.Second); got != nil {
		t.Fatal("empty query must match nothing")
	}
}

func TestLookupDeterministicOrder(t *testing.T) {
	x := New(DefaultConfig(), nil)
	x.Put(fn(10, 30), 1, 0, sim.Second)
	x.Put(fn(10, 11), 2, 0, sim.Second)
	x.Put(fn(10, 20), 3, 0, sim.Second)
	ms := x.Lookup(keywords.NewQuery(10), 2*sim.Second)
	if len(ms) != 3 {
		t.Fatalf("matches = %d", len(ms))
	}
	if !(ms[0].File.String() < ms[1].File.String() && ms[1].File.String() < ms[2].File.String()) {
		t.Fatal("lookup order not sorted")
	}
}

func TestFilenames(t *testing.T) {
	x := New(DefaultConfig(), nil)
	x.Put(fn(2), 1, 0, sim.Second)
	x.Put(fn(1), 1, 0, sim.Second)
	fs := x.Filenames()
	if len(fs) != 2 || fs[0].String() != "kw00001" || fs[1].String() != "kw00002" {
		t.Fatalf("filenames = %v", fs)
	}
}

func TestTotalProviderEntries(t *testing.T) {
	x := New(DefaultConfig(), nil)
	x.Put(fn(1), 1, 0, sim.Second)
	x.Put(fn(1), 2, 0, sim.Second)
	x.Put(fn(2), 3, 0, sim.Second)
	if n := x.TotalProviderEntries(); n != 3 {
		t.Fatalf("total = %d", n)
	}
}

// TestProvidersReturnsCopy: the provider lists Lookup returns are copies.
func TestProvidersReturnsCopy(t *testing.T) {
	x := New(DefaultConfig(), nil)
	f := fn(42)
	x.Put(f, 1, 2, sim.Second)
	ps := providers(x, f, 2*sim.Second)
	ps[0].Peer = 99
	if providers(x, f, 2*sim.Second)[0].Peer != 1 {
		t.Fatal("Lookup exposed internal storage")
	}
}

// Property: under arbitrary Put sequences the index never exceeds its
// bounds and provider lists stay most-recent-first.
func TestInvariantsQuick(t *testing.T) {
	prop := func(ops []struct {
		File uint8
		Peer uint8
		At   uint16
	}) bool {
		cfg := Config{MaxFilenames: 5, MaxProvidersPerFile: 3}
		x := New(cfg, nil)
		var clock sim.Time
		for _, op := range ops {
			clock += sim.Time(op.At) + 1
			f := fn(keywords.ID(op.File % 8))
			x.Put(f, overlay.PeerID(op.Peer%10), 0, clock)
			if x.Len() > 5 {
				return false
			}
			ps := providers(x, f, clock)
			if len(ps) > 3 {
				return false
			}
			for i := 1; i < len(ps); i++ {
				if ps[i].LastSeen > ps[i-1].LastSeen {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish randomized run mixing Put/Lookup/Providers with clock advance.
func TestRandomizedMixedOps(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	x := New(Config{MaxFilenames: 20, MaxProvidersPerFile: 4, TTL: 30 * sim.Second}, nil)
	names := []keywords.Filename{}
	for i := 0; i < 40; i++ {
		names = append(names, fn(keywords.ID(i%26), keywords.ID(100+i/26)))
	}
	var clock sim.Time
	for op := 0; op < 5000; op++ {
		clock += sim.Time(r.Intn(3000)) * sim.Millisecond
		switch r.Intn(4) {
		case 0, 1:
			x.Put(names[r.Intn(len(names))], overlay.PeerID(r.Intn(30)), netmodel.LocID(r.Intn(24)), clock)
		case 2:
			q := keywords.ExtractQuery(names[r.Intn(len(names))], r)
			for _, m := range x.Lookup(q, clock) {
				if !m.File.Matches(q) {
					t.Fatal("lookup returned non-matching file")
				}
				for _, p := range m.Providers {
					if clock-p.LastSeen > 30*sim.Second {
						t.Fatal("lookup returned stale provider")
					}
				}
			}
		case 3:
			for _, p := range providers(x, names[r.Intn(len(names))], clock) {
				if clock-p.LastSeen > 30*sim.Second {
					t.Fatal("providers returned stale entry")
				}
			}
		}
		if x.Len() > 20 {
			t.Fatal("capacity bound violated")
		}
	}
}

// evictionCounter counts evictions without allocating.
type evictionCounter struct {
	nopEvents
	n int
}

func (c *evictionCounter) FilenameEvicted(keywords.Filename) { c.n++ }

// TestWarmIndexAllocatesNothing: once an index has grown to its bound, a
// refresh, an insert that evicts and a lookup into reused buffers allocate
// nothing.
func TestWarmIndexAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	evictions := &evictionCounter{}
	x := New(cfg, evictions)
	names := make([]keywords.Filename, cfg.MaxFilenames+10)
	for i := range names {
		names[i] = fn(keywords.ID(i%7), keywords.ID(100+i))
	}
	var now sim.Time
	for _, f := range names {
		now += sim.Second
		x.Put(f, 1, 0, now)
	}
	f := names[len(names)-1]
	if got := testing.AllocsPerRun(100, func() { now += sim.Second; x.Put(f, 1, 2, now) }); got != 0 {
		t.Fatalf("a refresh made %v allocations", got)
	}
	k, evicted := 0, evictions.n
	if got := testing.AllocsPerRun(100, func() {
		now += sim.Second
		x.Put(names[k%len(names)], overlay.PeerID(k%9), 0, now)
		k++
	}); got != 0 {
		t.Fatalf("an insert that evicts made %v allocations", got)
	}
	if evictions.n-evicted != k {
		t.Fatalf("%d inserts evicted %d filenames", k, evictions.n-evicted)
	}
	var ms []Match
	var ps []Provider
	q := keywords.NewQuery(3)
	if got := testing.AllocsPerRun(100, func() { ms, ps = x.AppendMatches(ms[:0], ps[:0], q, now) }); got != 0 || len(ms) == 0 {
		t.Fatalf("AppendMatches made %v allocations for %d matches", got, len(ms))
	}
}

package cache

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// mapIndex is the response index as it was kept before the sorted slice: a
// map of per-filename records, each with its own provider list. It is the
// oracle TestIndexMatchesMapOracle holds Index to.
type mapIndex struct {
	cfg    Config
	files  map[keywords.Filename]*mapEntry
	events Events
}

type mapEntry struct {
	file      keywords.Filename
	providers []Provider // most recent first
	touched   sim.Time
}

func (x *mapIndex) Put(f keywords.Filename, p overlay.PeerID, loc netmodel.LocID, now sim.Time) {
	e, ok := x.files[f]
	if !ok {
		for len(x.files) > 0 && len(x.files) >= x.cfg.MaxFilenames {
			var victim *mapEntry
			for _, e := range x.files {
				if victim == nil || e.touched < victim.touched ||
					(e.touched == victim.touched && e.file.Compare(victim.file) < 0) {
					victim = e
				}
			}
			delete(x.files, victim.file)
			x.events.FilenameEvicted(victim.file)
		}
		e = &mapEntry{file: f}
		x.files[f] = e
		x.events.FilenameAdded(f)
	}
	e.touched = now
	e.providers = slices.DeleteFunc(e.providers, func(q Provider) bool { return q.Peer == p })
	e.providers = slices.Insert(e.providers, 0, Provider{Peer: p, LocID: loc, LastSeen: now})
	e.providers = e.providers[:min(len(e.providers), x.cfg.MaxProvidersPerFile)]
}

func (x *mapIndex) Lookup(q keywords.Query, now sim.Time) []Match {
	var out []Match
	for _, f := range x.Filenames() {
		e := x.files[f]
		if !f.Matches(q) {
			continue
		}
		if x.cfg.TTL > 0 {
			e.providers = slices.DeleteFunc(e.providers, func(p Provider) bool { return now-p.LastSeen > x.cfg.TTL })
			if len(e.providers) == 0 {
				delete(x.files, f)
				x.events.FilenameEvicted(f)
				continue
			}
		}
		out = append(out, Match{File: f, Providers: slices.Clone(e.providers)})
	}
	return out
}

func (x *mapIndex) Filenames() []keywords.Filename {
	var out []keywords.Filename
	for f := range x.files {
		out = append(out, f)
	}
	slices.SortFunc(out, keywords.Filename.Compare)
	return out
}

func (x *mapIndex) TotalProviderEntries() int {
	n := 0
	for _, e := range x.files {
		n += len(e.providers)
	}
	return n
}

// TestIndexMatchesMapOracle: over randomized Put / Lookup / expiry
// sequences and several bounds — one provider per file, no TTL, a single
// filename — the index answers every lookup as the map-based oracle does,
// holds the same filenames and provider entries after every step, and its
// listener hears the same adds and evictions in the same order.
func TestIndexMatchesMapOracle(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{MaxFilenames: 6, MaxProvidersPerFile: 3, TTL: 40 * sim.Second},
		{MaxFilenames: 4, MaxProvidersPerFile: 1, TTL: 20 * sim.Second},
		{MaxFilenames: 5, MaxProvidersPerFile: 2},
		{MaxFilenames: 1, MaxProvidersPerFile: 4, TTL: 15 * sim.Second},
		{MaxFilenames: 3, MaxProvidersPerFile: 0},
	} {
		r := rand.New(rand.NewSource(int64(cfg.MaxFilenames*10 + cfg.MaxProvidersPerFile)))
		var gotLog, wantLog recorder
		x := New(cfg, &gotLog)
		oracle := &mapIndex{cfg: cfg, files: map[keywords.Filename]*mapEntry{}, events: &wantLog}
		pick := func(n int) []keywords.ID {
			out := make([]keywords.ID, n)
			for i := range out {
				out[i] = keywords.ID(r.Intn(10))
			}
			return out
		}
		var now sim.Time
		lookups := 0
		for op := 0; op < 6000; op++ {
			now += sim.Time(r.Intn(4)) * sim.Second
			if r.Intn(3) > 0 {
				f := keywords.NewFilename(pick(1 + r.Intn(3))...)
				p, loc := overlay.PeerID(r.Intn(6)), netmodel.LocID(r.Intn(4))
				x.Put(f, p, loc, now)
				oracle.Put(f, p, loc, now)
			} else {
				q := keywords.NewQuery(pick(1 + r.Intn(2))...)
				got, want := x.Lookup(q, now), oracle.Lookup(q, now)
				if !slices.EqualFunc(got, want, func(a, b Match) bool {
					return a.File == b.File && slices.Equal(a.Providers, b.Providers)
				}) {
					t.Fatalf("%+v op %d: Lookup(%v) = %v, oracle %v", cfg, op, q, got, want)
				}
				if len(got) != 0 {
					lookups++
				}
			}
			if !slices.Equal(x.Filenames(), oracle.Filenames()) || x.TotalProviderEntries() != oracle.TotalProviderEntries() {
				t.Fatalf("%+v op %d: index holds %v (%d providers), oracle %v (%d)", cfg, op,
					x.Filenames(), x.TotalProviderEntries(), oracle.Filenames(), oracle.TotalProviderEntries())
			}
		}
		if !slices.Equal(gotLog.added, wantLog.added) || !slices.Equal(gotLog.evicted, wantLog.evicted) {
			t.Fatalf("%+v: the listeners heard different adds or evictions", cfg)
		}
		if lookups < 100 || len(wantLog.evicted) < 100 {
			t.Fatalf("%+v: %d answered lookups, %d evictions; the stream does not exercise both", cfg, lookups, len(wantLog.evicted))
		}
	}
}

// Package cache implements the response index (RI) of §3.2/§4.1: each peer
// maintains a bounded cache of file indexes, where an index for filename f
// holds one or more provider entries (peer address + locId + recency).
// Locaware's policies are encoded here:
//
//   - several indexes per file, each tagged with the provider's physical
//     location (locId) — §4.1.1;
//   - the most recent provider entries replace the oldest as new responses
//     for f pass by — §4.1.2;
//   - bounded storage: the peer controls its cache size in filenames, with
//     least-recently-updated eviction;
//   - staleness expiry: cached entries are kept for a small amount of time
//     to avoid stale responses in a dynamic network (§4.1.2, citing [11]).
//
// Layout: an index keeps its entries sorted by filename, beside a provider
// slice with MaxProvidersPerFile slots per entry. Its first Put carves room
// for two filenames from a block its table shares; one that outgrows it
// reallocates alone. Lookup returns copies the caller may keep;
// AppendMatches appends the same copies to caller buffers, each match's
// providers a capped window of the provider buffer.
package cache

import (
	"cmp"
	"iter"
	"slices"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// Provider is one cached index entry: a peer that provides the file, its
// physical locality, and when this entry was last refreshed.
type Provider struct {
	Peer     overlay.PeerID
	LocID    netmodel.LocID
	LastSeen sim.Time
}

// entry is the per-filename record; its providers sit in the index's
// provider slots.
type entry struct {
	file    keywords.Filename
	n       int32    // providers held, most recent first
	touched sim.Time // last insertion/refresh, drives filename LRU
}

// Config bounds the response index.
type Config struct {
	// MaxFilenames caps distinct filenames; paper's enlarged RI holds 50.
	MaxFilenames int
	// MaxProvidersPerFile caps the provider list per filename.
	MaxProvidersPerFile int
	// TTL expires provider entries not refreshed within it; 0 disables.
	TTL sim.Time
}

// DefaultConfig matches the paper's RI sizing with a provider-list bound
// and a staleness TTL in line with the Gnutella caching studies it cites.
func DefaultConfig() Config {
	return Config{MaxFilenames: 50, MaxProvidersPerFile: 5, TTL: 10 * sim.Minute}
}

// Events receives cache mutations so callers can maintain derived state
// (Locaware peers keep their keyword Bloom filter in sync through these).
type Events interface {
	// FilenameAdded fires when a filename enters the index.
	FilenameAdded(f keywords.Filename)
	// FilenameEvicted fires when a filename leaves the index (eviction or
	// full expiry).
	FilenameEvicted(f keywords.Filename)
}

// nopEvents lets the index run without a listener.
type nopEvents struct{}

func (nopEvents) FilenameAdded(keywords.Filename)   {}
func (nopEvents) FilenameEvicted(keywords.Filename) {}

// table is what a NewTable's indexes share: their bounds and the unused
// rest of the 64-window block their first windows are carved from.
type table struct {
	cfg   Config
	ents  []entry
	provs []Provider
}

// Index is one peer's response index. It is not safe for concurrent use;
// the simulator is single-threaded by design.
type Index struct {
	t *table
	// ents is sorted by filename; entry i's providers are
	// provs[i*MaxProvidersPerFile:][:ents[i].n].
	ents   []entry
	provs  []Provider
	events Events

	// inserts and refreshes count provider writes; a peer compares them
	// around a caching step to tell whether it cached anything.
	inserts, refreshes uint64
}

// New returns an empty index with the given bounds and an optional event
// listener (nil is allowed): a table of one (NewTable).
func New(cfg Config, events Events) *Index {
	return &NewTable(1, cfg, func(int) Events { return events })[0]
}

// NewTable returns n empty indexes with the given bounds in one slice;
// events(i) is index i's listener (nil is allowed).
func NewTable(n int, cfg Config, events func(i int) Events) []Index {
	t := &table{cfg: cfg}
	xs := make([]Index, n)
	for i := range xs {
		xs[i] = Index{t: t, events: cmp.Or(events(i), Events(nopEvents{}))}
	}
	return xs
}

// Len returns the number of cached filenames.
func (x *Index) Len() int { return len(x.ents) }

// Inserts returns the number of provider insertions performed.
func (x *Index) Inserts() uint64 { return x.inserts }

// Refreshes returns the number of provider refreshes (existing peer seen
// again).
func (x *Index) Refreshes() uint64 { return x.refreshes }

// providers returns entry i's providers, most recent first.
func (x *Index) providers(i int) []Provider {
	s := x.t.cfg.MaxProvidersPerFile
	return x.provs[i*s : i*s+int(x.ents[i].n)]
}

// Put records that peer p (at locality loc) provides file f, observed at
// time now. If p is already listed for f, its entry is refreshed and moved
// to the front; otherwise it is inserted at the front and the oldest entry
// is dropped if the provider list overflows (§4.1.2: "the most recent pf
// entries replace the oldest ones"). Inserting a new filename may evict the
// least-recently-touched filename.
func (x *Index) Put(f keywords.Filename, p overlay.PeerID, loc netmodel.LocID, now sim.Time) {
	i, ok := x.find(f)
	if !ok {
		i = x.insert(f)
	}
	e := &x.ents[i]
	e.touched = now
	ps := x.providers(i)
	j := slices.IndexFunc(ps, func(q Provider) bool { return q.Peer == p })
	if j >= 0 {
		x.refreshes++
	} else { // insert, dropping the oldest entry if the list is full
		x.inserts++
		e.n = min(e.n+1, int32(x.t.cfg.MaxProvidersPerFile))
		ps = x.providers(i)
		j = len(ps) - 1
	}
	if j >= 0 { // MaxProvidersPerFile 0 holds none
		copy(ps[1:j+1], ps[:j])
		ps[0] = Provider{Peer: p, LocID: loc, LastSeen: now}
	}
}

// find returns where f sits in the sorted entries, or would be inserted,
// and whether it is there.
func (x *Index) find(f keywords.Filename) (int, bool) {
	return slices.BinarySearchFunc(x.ents, f, func(e entry, f keywords.Filename) int { return e.file.Compare(f) })
}

// insert adds f, with no providers, after evicting least-recently-touched
// filenames until it fits, and returns its position.
func (x *Index) insert(f keywords.Filename) int {
	for len(x.ents) > 0 && len(x.ents) >= x.t.cfg.MaxFilenames {
		// The victim is the first in filename order among the oldest.
		v := 0
		for i := range x.ents {
			if x.ents[i].touched < x.ents[v].touched {
				v = i
			}
		}
		x.remove(v)
	}
	if t := x.t; x.ents == nil { // a first Put: carve a window for two filenames
		w := min(2, t.cfg.MaxFilenames)
		x.ents = sim.Carve(&t.ents, w)
		x.provs = sim.Carve(&t.provs, w*t.cfg.MaxProvidersPerFile)
	}
	i, _ := x.find(f)
	s, n := x.t.cfg.MaxProvidersPerFile, len(x.provs)
	x.ents = slices.Insert(x.ents, i, entry{file: f})
	x.provs = slices.Grow(x.provs, s)[:n+s]
	copy(x.provs[(i+1)*s:], x.provs[i*s:n])
	x.events.FilenameAdded(f)
	return i
}

// remove deletes entry i and its provider slots and reports the eviction.
func (x *Index) remove(i int) {
	f, s := x.ents[i].file, x.t.cfg.MaxProvidersPerFile
	x.ents = slices.Delete(x.ents, i, i+1)
	x.provs = slices.Delete(x.provs, i*s, (i+1)*s)
	x.events.FilenameEvicted(f)
}

// expire drops entry i's providers older than TTL; it returns true if none
// was left and the entry was removed.
func (x *Index) expire(i int, now sim.Time) bool {
	ttl := x.t.cfg.TTL
	if ttl <= 0 {
		return false
	}
	kept := slices.DeleteFunc(x.providers(i), func(p Provider) bool { return now-p.LastSeen > ttl })
	if x.ents[i].n = int32(len(kept)); len(kept) == 0 {
		x.remove(i)
		return true
	}
	return false
}

// Match is a query hit against the index: the cached filename and its live
// providers.
type Match struct {
	File      keywords.Filename
	Providers []Provider
}

// Lookup returns all cached filenames satisfying q, with their live
// provider lists, in filename order. The response index of a Locaware peer
// answers keyword queries from exactly this set. The result is a copy.
func (x *Index) Lookup(q keywords.Query, now sim.Time) []Match {
	ms, _ := x.AppendMatches(nil, nil, q, now)
	return ms
}

// AppendMatches is Lookup into caller buffers: it appends the matches to ms
// and copies of their providers to ps, each match's provider list a capped
// window of ps, and returns both extended slices.
func (x *Index) AppendMatches(ms []Match, ps []Provider, q keywords.Query, now sim.Time) ([]Match, []Provider) {
	for i := 0; i < len(x.ents); i++ {
		if !x.ents[i].file.Matches(q) {
			continue
		}
		if x.expire(i, now) {
			i--
			continue
		}
		n := len(ps)
		ps = append(ps, x.providers(i)...)
		ms = append(ms, Match{File: x.ents[i].file, Providers: ps[n:len(ps):len(ps)]})
	}
	return ms, ps
}

// Files yields the cached filenames in filename order, allocating nothing.
func (x *Index) Files() iter.Seq[keywords.Filename] {
	return func(yield func(keywords.Filename) bool) {
		for i := 0; i < len(x.ents) && yield(x.ents[i].file); i++ {
		}
	}
}

// Filenames returns the cached filenames, sorted.
func (x *Index) Filenames() []keywords.Filename { return slices.Collect(x.Files()) }

// TotalProviderEntries counts provider entries across all filenames — the
// storage-overhead metric of §4.1.2.
func (x *Index) TotalProviderEntries() int {
	n := 0
	for i := range x.ents {
		n += int(x.ents[i].n)
	}
	return n
}

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
package cache

import (
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

// entry is the per-filename record.
type entry struct {
	file      keywords.Filename
	providers []Provider // most recent first
	touched   sim.Time   // last insertion/refresh, drives filename LRU
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

// Index is one peer's response index. It is not safe for concurrent use;
// the simulator is single-threaded by design.
type Index struct {
	cfg     Config
	entries map[keywords.Filename]*entry
	events  Events

	// inserts and refreshes count provider writes; a peer compares them
	// around a caching step to tell whether it cached anything.
	inserts, refreshes uint64
}

// New returns an empty index with the given bounds and an optional event
// listener (nil is allowed).
func New(cfg Config, events Events) *Index {
	if cfg.MaxFilenames <= 0 {
		cfg.MaxFilenames = DefaultConfig().MaxFilenames
	}
	if cfg.MaxProvidersPerFile <= 0 {
		cfg.MaxProvidersPerFile = DefaultConfig().MaxProvidersPerFile
	}
	if events == nil {
		events = nopEvents{}
	}
	return &Index{cfg: cfg, entries: make(map[keywords.Filename]*entry), events: events}
}

// Len returns the number of cached filenames.
func (x *Index) Len() int { return len(x.entries) }

// Inserts returns the number of provider insertions performed.
func (x *Index) Inserts() uint64 { return x.inserts }

// Refreshes returns the number of provider refreshes (existing peer seen
// again).
func (x *Index) Refreshes() uint64 { return x.refreshes }

// Put records that peer p (at locality loc) provides file f, observed at
// time now. If p is already listed for f, its entry is refreshed and moved
// to the front; otherwise it is inserted at the front and the oldest entry
// is dropped if the provider list overflows (§4.1.2: "the most recent pf
// entries replace the oldest ones"). Inserting a new filename may evict the
// least-recently-touched filename.
func (x *Index) Put(f keywords.Filename, p overlay.PeerID, loc netmodel.LocID, now sim.Time) {
	e, ok := x.entries[f]
	if !ok {
		x.makeRoom(now)
		e = &entry{file: f}
		x.entries[f] = e
		x.events.FilenameAdded(f)
	}
	e.touched = now
	// Refresh if the provider is already present.
	for i := range e.providers {
		if e.providers[i].Peer == p {
			e.providers[i].LocID = loc
			e.providers[i].LastSeen = now
			// Move to front.
			pr := e.providers[i]
			copy(e.providers[1:i+1], e.providers[:i])
			e.providers[0] = pr
			x.refreshes++
			return
		}
	}
	// Insert at front.
	e.providers = append(e.providers, Provider{})
	copy(e.providers[1:], e.providers)
	e.providers[0] = Provider{Peer: p, LocID: loc, LastSeen: now}
	if len(e.providers) > x.cfg.MaxProvidersPerFile {
		e.providers = e.providers[:x.cfg.MaxProvidersPerFile]
	}
	x.inserts++
}

// makeRoom evicts least-recently-touched filenames until a new one fits.
func (x *Index) makeRoom(now sim.Time) {
	for len(x.entries) >= x.cfg.MaxFilenames {
		var victim *entry
		for _, e := range x.entries {
			if victim == nil || e.touched < victim.touched ||
				(e.touched == victim.touched && e.file.Compare(victim.file) < 0) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(x.entries, victim.file)
		x.events.FilenameEvicted(victim.file)
	}
}

// expire drops provider entries older than TTL from e; it returns true if
// the whole entry became empty and was removed.
func (x *Index) expire(e *entry, now sim.Time) bool {
	if x.cfg.TTL <= 0 {
		return false
	}
	kept := e.providers[:0]
	for _, p := range e.providers {
		if now-p.LastSeen <= x.cfg.TTL {
			kept = append(kept, p)
		}
	}
	e.providers = kept
	if len(e.providers) == 0 {
		delete(x.entries, e.file)
		x.events.FilenameEvicted(e.file)
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
// provider lists, deterministic (sorted by filename). The response index of
// a Locaware peer answers keyword queries from exactly this set.
func (x *Index) Lookup(q keywords.Query, now sim.Time) []Match {
	var hits []*entry
	for _, e := range x.entries {
		if e.file.Matches(q) {
			hits = append(hits, e)
		}
	}
	slices.SortFunc(hits, func(a, b *entry) int { return a.file.Compare(b.file) })
	var out []Match
	for _, e := range hits {
		if x.expire(e, now) {
			continue
		}
		ps := make([]Provider, len(e.providers))
		copy(ps, e.providers)
		out = append(out, Match{File: e.file, Providers: ps})
	}
	return out
}

// Filenames returns the cached filenames, sorted.
func (x *Index) Filenames() []keywords.Filename {
	out := make([]keywords.Filename, 0, len(x.entries))
	for f := range x.entries {
		out = append(out, f)
	}
	slices.SortFunc(out, keywords.Filename.Compare)
	return out
}

// TotalProviderEntries counts provider entries across all filenames — the
// storage-overhead metric of §4.1.2.
func (x *Index) TotalProviderEntries() int {
	n := 0
	for _, e := range x.entries {
		n += len(e.providers)
	}
	return n
}

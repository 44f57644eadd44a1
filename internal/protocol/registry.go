package protocol

import "github.com/p2prepro/locaware/internal/cache"

// Routing is where a peer that cannot answer a query sends it.
type Routing uint8

const (
	// RouteAll forwards to every candidate (Gnutella flooding).
	RouteAll Routing = iota
	// RouteQueryGid forwards to the candidates whose Gid is the hash of the
	// whole query, which equals the filename's only when the query names all
	// of its keywords (§5.2).
	RouteQueryGid
	// RouteKeywordGid forwards to the candidates whose Gid is the hash of
	// the query's first keyword in canonical order, fixed for its lifetime
	// so every hop steers alike. One group keeps the walk as selective as
	// Dicas' (Fig. 3); any keyword's group would branch on most neighbours.
	RouteKeywordGid
)

// Placement is which reverse-path peers cache a response's index (Eq. 1).
type Placement uint8

const (
	// PlaceNone caches nothing.
	PlaceNone Placement = iota
	// PlaceFilenameGid caches at peers whose Gid is the filename's hash.
	PlaceFilenameGid
	// PlaceKeywordGid caches at peers whose Gid is the hash of any query
	// keyword, so one filename is cached once per keyword group (§2).
	PlaceKeywordGid
)

// Spec is a protocol as a row of the mechanisms the paper compares; the
// Network branches on its fields. Selective routing ends, when no candidate
// is in the wanted group, in the highest-degree candidate plus a random
// other. Every row shares the answer-side locId rule: an answering index
// picks the match with a provider in the origin's locality and lists those
// providers first (§4.1.2 for Locaware; unspecified for the baselines).
type Spec struct {
	// Label identifies the protocol in results and campaign hashes.
	Label     string
	Routing   Routing
	Placement Placement
	// Bloom maintains and gossips keyword Bloom filters, and forwards first
	// to the neighbours whose filter matches every query keyword (§4.2).
	Bloom bool
	// MultiProvider keeps several providers per cached filename, each with
	// its locId (§4.1.1); without it an index holds one provider a file.
	MultiProvider bool
	// Learn inserts the requester as a new provider wherever the placement
	// rule caches: on the reverse path and at the answering peer (§4.1.2).
	Learn bool
	// LocSelect picks the download source in the requester's locality,
	// else the least measured RTT (§5.1); without it, the first provider.
	LocSelect bool
}

// Behavior is a protocol the harness can run and name. Spec implements it,
// so a hand-built row goes wherever a baseline does.
type Behavior interface {
	// Name identifies the protocol in results.
	Name() string
	// CacheConfig adapts the base cache bounds to the protocol.
	CacheConfig(base cache.Config) cache.Config
	// Spec returns the protocol's row.
	Spec() Spec
}

// Name implements Behavior.
func (s Spec) Name() string { return s.Label }

// Spec implements Behavior.
func (s Spec) Spec() Spec { return s }

// CacheConfig implements Behavior: a row that places nothing keeps one
// filename of one provider, never written; one without MultiProvider one
// provider a file. The provider bound sizes a fresh response's providers.
func (s Spec) CacheConfig(base cache.Config) cache.Config {
	switch {
	case s.Placement == PlaceNone:
		base.MaxFilenames, base.MaxProvidersPerFile = 1, 1
	case !s.MultiProvider:
		base.MaxProvidersPerFile = 1
	}
	return base
}

// rows are the paper's four compared protocols in figure order:
//   - Flooding, the blind Gnutella baseline: the traffic anchor of Fig. 3
//     and the success ceiling of Fig. 4;
//   - Dicas (Wang et al., TPDS 2006), filename-hash caching and routing;
//     a keyword query hashes only the keywords it has (§5.2);
//   - Dicas-Keys, Dicas adapted to keywords (§2), whose duplicated indexes
//     crowd the bounded response index (Fig. 4);
//   - Locaware (§4), Dicas' placement plus the four mechanisms.
var rows = [...]Spec{
	{Label: "Flooding", Routing: RouteAll},
	{Label: "Dicas", Routing: RouteQueryGid, Placement: PlaceFilenameGid},
	{Label: "Dicas-Keys", Routing: RouteKeywordGid, Placement: PlaceKeywordGid},
	{Label: "Locaware", Routing: RouteQueryGid, Placement: PlaceFilenameGid,
		Bloom: true, MultiProvider: true, Learn: true, LocSelect: true},
}

// Flooding, Dicas, DicasKeys and Locaware name the rows by type, as the
// benchmark harness spells them.
type (
	Flooding  struct{}
	Dicas     struct{}
	DicasKeys struct{}
	Locaware  struct{}
)

func (Flooding) Spec() Spec  { return rows[0] }
func (Dicas) Spec() Spec     { return rows[1] }
func (DicasKeys) Spec() Spec { return rows[2] }
func (Locaware) Spec() Spec  { return rows[3] }

func (b Flooding) Name() string  { return b.Spec().Label }
func (b Dicas) Name() string     { return b.Spec().Label }
func (b DicasKeys) Name() string { return b.Spec().Label }
func (b Locaware) Name() string  { return b.Spec().Label }

func (b Flooding) CacheConfig(base cache.Config) cache.Config  { return b.Spec().CacheConfig(base) }
func (b Dicas) CacheConfig(base cache.Config) cache.Config     { return b.Spec().CacheConfig(base) }
func (b DicasKeys) CacheConfig(base cache.Config) cache.Config { return b.Spec().CacheConfig(base) }
func (b Locaware) CacheConfig(base cache.Config) cache.Config  { return b.Spec().CacheConfig(base) }

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []Behavior {
	return []Behavior{Flooding{}, Dicas{}, DicasKeys{}, Locaware{}}
}

// ByName resolves a behaviour by its Name(): exactly the four baselines.
// Every layer that accepts a protocol name — facade, sweep specs, CLIs —
// resolves it here.
func ByName(name string) (Behavior, bool) {
	for _, b := range Baselines() {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}

package protocol

import (
	"testing"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
)

// baselineRows is the four baselines in figure order, with their names,
// Bloom tiers, routing keys and their cache bounds over base.
var base = cache.DefaultConfig()
var baselineRows = []struct {
	b                   Behavior
	name                string
	bloom, firstKeyword bool
	files, provs        int
}{
	{Flooding{}, "Flooding", false, false, 1, 1},
	{Dicas{}, "Dicas", false, false, base.MaxFilenames, 1},
	{DicasKeys{}, "Dicas-Keys", false, true, base.MaxFilenames, 1},
	{Locaware{}, "Locaware", true, false, base.MaxFilenames, base.MaxProvidersPerFile},
}

// TestBehaviorNamesAndBloomFlags: only Locaware's network builds Bloom filters.
func TestBehaviorNamesAndBloomFlags(t *testing.T) {
	for _, c := range baselineRows {
		if s := testNet(t, c.b, linePoints(1), nil, DefaultConfig()).nodes[0].shared.scratch; c.b.Name() != c.name || (s != nil) != c.bloom {
			t.Errorf("%q: Bloom filters %v, want %s, %v", c.b.Name(), s != nil, c.name, c.bloom)
		}
	}
}

// TestCacheConfigAdaptation: one filename of one provider for Flooding, one
// provider for Dicas.
func TestCacheConfigAdaptation(t *testing.T) {
	for _, c := range baselineRows {
		if got := c.b.CacheConfig(base); got.MaxFilenames != c.files || got.MaxProvidersPerFile != c.provs {
			t.Errorf("%s cache bounds %d × %d, want %d × %d", c.name, got.MaxFilenames, got.MaxProvidersPerFile, c.files, c.provs)
		}
	}
}

// TestDicasKeysRoutingKeyword: a query's group is hashed at submission, from
// its first keyword under Dicas-Keys, else from the whole query.
func TestDicasKeysRoutingKeyword(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupCount = 64
	q, empty := query("zeta", "alpha"), keywords.Query{}
	gids := map[bool]int32{false: int32(gidOfQuery(q, 64)), true: int32(gidOfKeyword(kw("alpha"), 64))}
	if gids[false] == gids[true] {
		t.Fatal("fixture: the query hashes to its first keyword's group")
	}
	for _, c := range baselineRows {
		net := testNet(t, c.b, linePoints(1), nil, cfg)
		if net.routingGid(q) != gids[c.firstKeyword] || net.routingGid(empty) != int32(gidOfQuery(empty, 64)) {
			t.Errorf("%s: routing groups %d and %d", c.name, net.routingGid(q), net.routingGid(empty))
		}
	}
}

// TestByNameRoundTripsName: every baseline resolves from its own Name(), in
// figure order; unknown names (the deleted §6 extension too) do not.
func TestByNameRoundTripsName(t *testing.T) {
	for i, c := range baselineRows {
		if got, ok := ByName(c.b.Name()); !ok || got != c.b || len(Baselines()) != len(baselineRows) || Baselines()[i] != c.b {
			t.Errorf("baseline %d: %q resolves to %v, %v; baselines %v", i, c.b.Name(), got, ok, Baselines())
		}
	}
	for _, name := range []string{"", "locaware", "Chord", "Locaware-LR"} {
		if b, ok := ByName(name); ok || b != nil {
			t.Fatalf("ByName(%q) resolved to %v", name, b)
		}
	}
}

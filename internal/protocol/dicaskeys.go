package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
)

// DicasKeys is the Dicas strategy adapted for keyword search (§2): indexes
// are cached based on hashes of the *query keywords* rather than the whole
// filename, and queries route towards groups of their own keywords. This
// supports keyword routing but "causes a large amount of duplicated cached
// indexes": the same filename is cached once per query keyword group,
// displacing other entries from the bounded response index — the storage
// cost Fig. 4 quantifies as the lowest success rate of the caching
// protocols.
type DicasKeys struct{}

var _ Behavior = DicasKeys{}

// Name implements Behavior.
func (DicasKeys) Name() string { return "Dicas-Keys" }

// UsesBloom implements Behavior.
func (DicasKeys) UsesBloom() bool { return false }

// CacheConfig implements Behavior: like Dicas, one provider per filename.
func (DicasKeys) CacheConfig(base cache.Config) cache.Config {
	base.MaxProvidersPerFile = 1
	return base
}

// Forward implements Behavior: the query routes towards the group of its
// routing keyword — the first keyword in canonical order, fixed for the
// query's lifetime so every hop steers consistently. Matching on a single
// group keeps Dicas-Keys' traffic in the same selective regime as Dicas
// (the paper's Fig. 3 shows all caching approaches ≈98% below flooding);
// matching any keyword's group would branch on most neighbours and
// degenerate towards flooding.
func (DicasKeys) Forward(net *Network, _ *Node, q *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	return net.gidOrFallback(gidOfQuery(routingKeyword(q.pq.q), net.Config.GroupCount), elig)
}

// routingKeyword returns the query's designated routing keyword (first in
// canonical order; queries are deduplicated and sorted on construction) as
// a one-keyword query, whose hash is the keyword's; an empty query routes
// as itself.
func routingKeyword(q keywords.Query) keywords.Query {
	if q.K() == 0 {
		return q
	}
	return keywords.NewQuery(q.KeywordAt(0))
}

// CacheResponse implements Behavior: cache wherever the node's Gid matches
// the hash of any keyword of the originating query — the keyword-hash
// placement that duplicates indexes across groups.
func (DicasKeys) CacheResponse(net *Network, n *Node, rsp *ResponseMsg) {
	m := net.Config.GroupCount
	matched := false
	for i := range rsp.QueryKws.K() {
		if gidOfKeyword(rsp.QueryKws.KeywordAt(i), m) == n.Gid {
			matched = true
			break
		}
	}
	if !matched {
		return
	}
	now := net.Engine.Now()
	for _, p := range rsp.Providers {
		n.RI.Put(rsp.File, p.Peer, p.LocID, now)
	}
}

// OnAnswer implements Behavior: no answering-side state.
func (DicasKeys) OnAnswer(*Network, *Node, *QueryMsg, keywords.Filename) {}

// SelectProvider implements Behavior: first provider.
func (DicasKeys) SelectProvider(_ *Network, _ *Node, provs []cache.Provider) (cache.Provider, bool) {
	if len(provs) == 0 {
		return cache.Provider{}, false
	}
	return provs[0], true
}

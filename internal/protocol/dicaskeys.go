package protocol

import (
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
// protocols. It embeds Dicas for everything else: one provider per
// filename, no Bloom filters, no answering-side state, the first provider.
type DicasKeys struct{ Dicas }

var _ Behavior = DicasKeys{}

// Name implements Behavior.
func (DicasKeys) Name() string { return "Dicas-Keys" }

// Forward implements Behavior: the query routes towards the group of its
// routing keyword — the first keyword in canonical order, fixed for the
// query's lifetime so every hop steers consistently. Matching on a single
// group keeps Dicas-Keys' traffic in the same selective regime as Dicas
// (the paper's Fig. 3 shows all caching approaches ≈98% below flooding);
// matching any keyword's group would branch on most neighbours and
// degenerate towards flooding.
func (DicasKeys) Forward(net *Network, _ overlay.PeerID, q *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	return net.gidOrFallback(int32(gidOfQuery(routingKeyword(q.pq.q), net.Config.GroupCount)), elig)
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
	m, gid := net.Config.GroupCount, int(net.gids[n.ID])
	matched := false
	for i := range rsp.QueryKws.K() {
		if gidOfKeyword(rsp.QueryKws.KeywordAt(i), m) == gid {
			matched = true
			break
		}
	}
	if matched {
		cacheProviders(net, n, rsp)
	}
}

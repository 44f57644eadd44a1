package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/overlay"
)

// Dicas is the filename-search baseline (Wang et al., TPDS 2006) as
// described in §2/§3.2: query responses for file f are cached only at peers
// whose Gid equals hash(f) mod M, and queries route towards neighbours in
// the matching group. It keeps a single provider per cached filename and
// ignores physical location. Under the keyword workload its routing is
// misled: a requester can only hash the keywords it has, which matches
// hash(f) only for full-filename queries (§5.2).
type Dicas struct{ blind }

var _ Behavior = Dicas{}

// Name implements Behavior.
func (Dicas) Name() string { return "Dicas" }

// CacheConfig implements Behavior: one provider per filename — Locaware's
// multi-provider index is one of its two advantages over Dicas (§5.2).
func (Dicas) CacheConfig(base cache.Config) cache.Config {
	base.MaxProvidersPerFile = 1
	return base
}

// Forward implements Behavior: candidates whose Gid matches the query's
// filename hash; if none, the highest-degree neighbour keeps the query
// alive.
func (Dicas) Forward(net *Network, _ *Node, q *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	return net.gidOrFallback(int(q.pq.gid), elig)
}

// CacheResponse implements Behavior: cache at matching-Gid peers on the
// reverse path (Eq. 1), storing the responding provider only.
func (Dicas) CacheResponse(net *Network, n *Node, rsp *ResponseMsg) {
	if gidOfName(rsp.File, net.Config.GroupCount) == n.Gid {
		cacheProviders(net, n, rsp)
	}
}

// cacheProviders stores every provider rsp carries in n's response index,
// the insertion Dicas, Dicas-Keys and Locaware share once their placement
// rule has picked n.
func cacheProviders(net *Network, n *Node, rsp *ResponseMsg) {
	now := net.Engine.Now()
	for _, p := range rsp.Providers {
		n.RI.Put(rsp.File, p.Peer, p.LocID, now)
	}
}

package protocol

import (
	"math"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
)

// Locaware is the paper's contribution (§4):
//
//   - caching placement inherited from Dicas (Gid on the filename hash),
//     avoiding redundant indexes among neighbours;
//   - location-aware indexes: several providers per cached filename, each
//     tagged with its locId (§4.1.1);
//   - natural-replication learning: the requester rides the response as a
//     new provider and is inserted by every caching peer on the reverse
//     path, and by the answering peer (§4.1.2);
//   - Bloom-filter keyword routing: forward to neighbours whose gossiped
//     filter matches every query keyword; fall back to Gid-matched
//     neighbours, then to the highest-degree neighbour (§4.2);
//   - location-aware provider selection at the requester: same locId if
//     possible, else the measured-RTT minimum (§5.1).
type Locaware struct{}

var _ Behavior = Locaware{}

// Name implements Behavior.
func (Locaware) Name() string { return "Locaware" }

// UsesBloom implements Behavior.
func (Locaware) UsesBloom() bool { return true }

// CacheConfig implements Behavior: keep the multi-provider bounds.
func (Locaware) CacheConfig(base cache.Config) cache.Config { return base }

// Forward implements Behavior. Neighbour preference order per §4.2: Bloom
// match on all keywords → Gid match → highest-degree last resort. The
// Bloom tier reads p's node and copies only when the query's fold lies
// within p's nbFold; otherwise none of the copies can match.
func (Locaware) Forward(net *Network, p overlay.PeerID, q *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	pq := q.pq
	if pq.fold&^net.sigs[p].nbFold == 0 {
		n := &net.nodes[p]
		bfMatched := net.targetBuf()
		for _, nb := range elig {
			if bf := n.NeighborBloom(nb); bf != nil && bf.TestIndexes(pq.kwIdx) {
				bfMatched = append(bfMatched, nb)
			}
		}
		if len(bfMatched) > 0 {
			net.forwarding.BloomMatched += uint64(len(bfMatched))
			return bfMatched
		}
	}
	return net.gidOrFallback(pq.gid, elig)
}

// CacheResponse implements Behavior: matching-Gid peers cache every
// provider in the response plus the requester as a new provider (§4.1.2's
// worked example: B caches (D,1) and (A,3)).
func (Locaware) CacheResponse(net *Network, n *Node, rsp *ResponseMsg) {
	if gidOfName(rsp.File, net.Config.GroupCount) != int(net.gids[n.ID]) {
		return
	}
	cacheProviders(net, n, rsp)
	if rsp.Origin != n.ID {
		n.RI.Put(rsp.File, rsp.Origin, rsp.OriginLoc, net.Engine.Now())
	}
}

// OnAnswer implements Behavior: the answering peer records the requester
// as a new provider when its Gid matches the filename ("peer B then adds
// in its RI the entry (E,1) as a new provider of f", §4.1.2).
func (Locaware) OnAnswer(net *Network, n *Node, q *QueryMsg, f keywords.Filename) {
	if gidOfName(f, net.Config.GroupCount) != int(net.gids[n.ID]) {
		return
	}
	if q.pq.origin == n.ID {
		return
	}
	n.RI.Put(f, q.pq.origin, q.pq.originLoc, net.Engine.Now())
}

// SelectProvider implements Behavior, the §5.1 rule: prefer a provider in
// the requester's locality; otherwise measure RTT to every advertised
// provider and take the minimum.
func (Locaware) SelectProvider(net *Network, requester *Node, provs []cache.Provider) (cache.Provider, bool) {
	if len(provs) == 0 {
		return cache.Provider{}, false
	}
	for _, p := range provs {
		if p.LocID == requester.Loc {
			return p, true
		}
	}
	best := provs[0]
	bestRTT := math.Inf(1)
	for _, p := range provs {
		if rtt := net.Model.RTT(int(requester.ID), int(p.Peer)); rtt < bestRTT {
			best, bestRTT = p, rtt
		}
	}
	return best, true
}

package protocol

import (
	"github.com/p2prepro/locaware/internal/overlay"
)

// LocawareLR extends Locaware with the location-aware query routing the
// paper's conclusion proposes as future work ("one way is to investigate
// location-aware query routing in unstructured systems"): among
// Bloom-matched neighbours, those in the requester's locality are tried
// exclusively when available, steering the search towards regions where a
// same-locality provider is more likely to be cached.
type LocawareLR struct {
	Locaware
}

var _ Behavior = LocawareLR{}

// Name implements Behavior.
func (LocawareLR) Name() string { return "Locaware-LR" }

// Forward implements Behavior: Bloom-matched candidates in the origin's
// locality first, then the other Bloom-matched ones, then — nothing having
// matched — the rest of Locaware's preference chain.
func (LocawareLR) Forward(net *Network, n *Node, q *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	kwIdx := q.pq.kwIdx
	sameLoc, other := net.targetBuf(), net.targetBuf2()
	for _, nb := range elig {
		if bf := n.NeighborBloom(nb); bf != nil && bf.TestIndexes(kwIdx) {
			if net.nodes[nb].Loc == q.pq.originLoc {
				sameLoc = append(sameLoc, nb)
			} else {
				other = append(other, nb)
			}
		}
	}
	if len(sameLoc) > 0 {
		net.forwarding.BloomMatched += uint64(len(sameLoc))
		return sameLoc
	}
	if len(other) > 0 {
		net.forwarding.BloomMatched += uint64(len(other))
		return other
	}
	return net.gidOrFallback(q.pq.gid, elig)
}

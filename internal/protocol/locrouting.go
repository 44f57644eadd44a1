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

// Forward implements Behavior: Bloom-matched neighbours in the origin's
// locality first; then the plain Locaware preference chain.
func (l LocawareLR) Forward(net *Network, n *Node, q *QueryMsg, from overlay.PeerID) []overlay.PeerID {
	kwIdx := q.pq.kwIdx
	sameLoc, other := net.targetBuf(), net.targetBuf2()
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) {
			continue
		}
		node := net.nodes[nb]
		if bf := n.NeighborBloom(nb); bf != nil && bf.TestIndexes(kwIdx) {
			if node.Loc == q.OriginLoc {
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
	return l.Locaware.Forward(net, n, q, from)
}

// Package protocol implements the search protocols compared in §5 of the
// Locaware paper on top of the simulation substrates:
//
//   - Flooding — blind Gnutella flooding bounded by TTL;
//   - Dicas — group-Id (Gid) restricted index caching with filename-hash
//     routing (Wang et al., TPDS 2006), the paper's first baseline;
//   - Dicas-Keys — the Dicas variant for keyword search that caches and
//     routes on hashed query keywords, the paper's second baseline;
//   - Locaware — Gid-restricted caching with location-aware provider
//     entries, requester-as-new-provider insertion, and Bloom-filter
//     keyword routing (§4);
//   - Locaware-LR — the §6 future-work extension that also biases routing
//     towards the requester's locality.
//
// All protocols share one message plane (query forwarding with TTL 7 and
// reverse-path responses) so their traffic is counted identically.
package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
)

// QueryID identifies a query across the network.
type QueryID uint64

// QueryMsg is a keyword query in flight (§3.1: a query is expressed by some
// keywords related to the queried filename). Instances are pooled by the
// network: a message is valid only during its delivery event, and state
// that outlives the event (response paths) must be copied out.
type QueryMsg struct {
	ID QueryID
	// pq is the query's shared state (seen bits, Bloom positions, message
	// count), copied branch to branch so a delivery looks nothing up by ID.
	// Once the query is finalised the pooled value may serve a newer one,
	// which receiveQuery detects by pq.id != ID.
	pq *pendingQuery
	// Q is the keyword set.
	Q keywords.Query
	// QGid caches gidOfQuery(Q, M): the group id every Gid-routing hop
	// consults.
	QGid int
	// Origin is the requesting peer; OriginLoc its locality (§4.1.2: the
	// answering peer selects providers according to the locId of the
	// querying peer, so the query carries it).
	Origin    overlay.PeerID
	OriginLoc netmodel.LocID
	// TTL is the remaining hop budget; the paper bounds searches at 7.
	TTL int
	// Path is the peers traversed so far, Origin first. Responses follow
	// the reverse of this path (§3.1).
	Path []overlay.PeerID
}

// onPath reports whether p already appears on the query's path.
func (q *QueryMsg) onPath(p overlay.PeerID) bool {
	for _, x := range q.Path {
		if x == p {
			return true
		}
	}
	return false
}

// ResponseMsg is a query response travelling the reverse path (§3.1: "query
// responses follow the reverse path of their corresponding q"). Instances
// are pooled and mutated in place as they walk the reverse path: exactly
// one scheduled delivery owns a response at any instant.
type ResponseMsg struct {
	ID QueryID
	// File is the satisfying filename.
	File keywords.Filename
	// Providers lists known providers of File, most preferred first. A
	// Locaware response carries several, each tagged with its locId
	// (§4.1.1); baselines carry one.
	Providers []cache.Provider
	// QueryKws preserves the originating query's keywords; Dicas-Keys
	// caches by hashed query keywords, so the response must carry them.
	QueryKws keywords.Query
	// Origin / OriginLoc identify the requester, which reverse-path peers
	// treat as a new provider of File in Locaware (§4.1.2).
	Origin    overlay.PeerID
	OriginLoc netmodel.LocID
	// Path is the remaining reverse path to walk; Path[len-1] is the next
	// hop already consumed by the network layer as it advances.
	Path []overlay.PeerID
	// HitHops is the overlay distance from origin to the answering peer.
	HitHops int
	// FromStorage reports whether the hit came from shared storage (true)
	// or a response index (false).
	FromStorage bool
}

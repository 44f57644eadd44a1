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
//     keyword routing (§4).
//
// All protocols share one message plane (query forwarding with TTL 7 and
// reverse-path responses) so their traffic is counted identically.
package protocol

import (
	"slices"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// QueryID identifies a query across the network.
type QueryID uint64

// QueryMsg is one branch of a keyword query in flight (§3.1: a query is
// expressed by some keywords related to the queried filename) and the
// simulator event that delivers it to Path[len-1]. What is constant for the
// query — keywords, group id, requester — lives on pq. Instances are pooled
// by the network: a message is valid only during its delivery, and state
// that outlives it (response paths) must be copied out.
type QueryMsg struct {
	net *Network
	ID  QueryID
	// pq is the query's shared state, copied branch to branch so a delivery
	// looks nothing up by ID. Once the query is finalised the pooled value
	// may serve a newer one, which receiveQuery detects by pq.id != ID;
	// nothing else of pq is read before that check.
	pq *pendingQuery
	// TTL is the remaining hop budget; the paper bounds searches at 7.
	TTL int32
	// span is the trace span of the forward that carries this branch (the
	// root for the origin's own), which everything it causes hangs under;
	// 0 untraced. TTL and span are 32-bit so that together they fill one
	// word: every in-flight branch is a pooled QueryMsg.
	span int32
	// Path is the peers traversed so far, the requester first and the
	// receiving peer last, so the sender is Path[len-2]. Responses follow
	// the reverse of this path (§3.1).
	Path []overlay.PeerID
}

// EventName implements sim.Named.
func (q *QueryMsg) EventName() string { return "query-deliver" }

// Fire implements sim.Event: the branch lands on the last peer of its path
// and returns to the pool.
func (q *QueryMsg) Fire(*sim.Engine) {
	q.net.receiveQuery(q.Path[len(q.Path)-1], q)
	q.net.msgPool.Put(q)
}

// onPath reports whether p already appears on the query's path.
func (q *QueryMsg) onPath(p overlay.PeerID) bool {
	return slices.Contains(q.Path, p)
}

// ResponseMsg is a query response travelling the reverse path (§3.1: "query
// responses follow the reverse path of their corresponding q") and the
// simulator event that delivers it to dst. Instances are pooled and mutated
// in place as they walk the reverse path: the queue holds a response at
// most once at any instant. It carries its own copies of the requester and
// the keywords because it outlives the query's finalisation.
type ResponseMsg struct {
	net *Network
	// dst is the peer the scheduled delivery lands on; sendResponse sets it.
	dst overlay.PeerID
	ID  QueryID
	// pq is the query's state, read only after checking pq.id == ID, as a
	// branch does: once the query is finalised the pooled value may serve a
	// newer one.
	pq *pendingQuery
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
	// Path is the remaining reverse path to walk, the next hop last;
	// sendResponse pops it into dst.
	Path []overlay.PeerID
	// HitHops is the overlay distance from origin to the answering peer.
	HitHops int
	// FromStorage reports whether the hit came from shared storage (true)
	// or a response index (false).
	FromStorage bool
	// span is the trace span of the hop that delivered the response, or of
	// the hit before its first hop; 0 untraced.
	span int32
}

// EventName implements sim.Named.
func (rsp *ResponseMsg) EventName() string { return "response-deliver" }

// Fire implements sim.Event. The response stays with its delivery chain:
// deliverResponse either completes and releases it or posts the next hop.
func (rsp *ResponseMsg) Fire(*sim.Engine) { rsp.net.deliverResponse(rsp.dst, rsp) }

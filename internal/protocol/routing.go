package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// forward ships q from peer p to the targets the row selects among the
// candidates: p's neighbours the query has not visited. The sender is on the
// path and a graph has no self-loops, so that one test is the whole
// predicate — and this is its only call site.
func (net *Network) forward(p overlay.PeerID, q *QueryMsg) {
	if q.TTL <= 0 {
		return
	}
	elig := net.eligBuf[:0]
	for _, nb := range net.Graph.Neighbors(p) {
		if !q.onPath(nb) {
			elig = append(elig, nb)
		}
	}
	net.eligBuf = elig[:0]
	for _, t := range net.targets(p, q.pq, elig) {
		branch := net.acquireMsg()
		branch.ID = q.ID
		branch.pq = q.pq
		branch.TTL = q.TTL - 1
		branch.Path = append(append(branch.Path[:0], q.Path...), t)
		branch.span = net.emit(trace.QueryForward, q.pq, q.ID, q.span, t, p, "")
		net.send(p, t, branch)
		q.pq.messages++ // forward only runs for a query still pending
	}
}

// targets selects among elig, in neighbour order, the peers p forwards pq
// to, in §4.2's preference order. Under Bloom routing these are the
// candidates whose filter matches every query keyword; p's node is read
// only when pq's fold lies within p's nbFold, since otherwise no copy can
// match. Failing that, RouteAll takes every candidate, and Gid routing
// those in pq's group, else the fallback set. targets returns elig, the
// network's target buffer or the fallback buffer, all consumed before the
// next hop.
func (net *Network) targets(p overlay.PeerID, pq *pendingQuery, elig []overlay.PeerID) []overlay.PeerID {
	if net.spec.Bloom {
		if pq.fold&^net.sigs[p].nbFold == 0 {
			n := &net.nodes[p]
			out := net.fwdBuf[:0]
			for _, nb := range elig {
				if bf := n.NeighborBloom(nb); bf != nil && bf.TestIndexes(pq.kwIdx) {
					out = append(out, nb)
				}
			}
			if len(out) > 0 {
				net.forwarding.BloomMatched += uint64(len(out))
				return out
			}
		}
	}
	if net.spec.Routing == RouteAll {
		net.forwarding.FloodAll += uint64(len(elig))
		return elig
	}
	return net.gidOrFallback(pq.gid, elig)
}

// send schedules delivery of a typed message event over link a->b with the
// physical one-way latency plus processing delay.
func (net *Network) send(a, b overlay.PeerID, ev sim.Event) {
	delay := sim.FromMillis(net.Model.OneWay(int(a), int(b))) + net.Config.ProcessingDelay
	net.Engine.PostEvent(delay, ev)
}

// receiveQuery processes an arriving query at peer p. The caller retains
// ownership of q (it is released to the pool after this returns), so any
// state that outlives the call — notably response reverse paths — is
// copied, never aliased. p's signature row screens the storage and index
// checks, so at a peer that cannot answer only forward reads the node.
func (net *Network) receiveQuery(p overlay.PeerID, q *QueryMsg) {
	if !net.Graph.Online(p) {
		return
	}
	pq := q.pq
	if pq.id != q.ID {
		// The query was already finalised (its state zeroed, or recycled for
		// a newer query): its record is sealed, so processing a straggler
		// would mutate caches the sealed record never saw. Under the
		// documented FinalizeAfter contract (longer than any in-flight
		// message) this cannot happen; with a misconfigured shorter deadline,
		// dropping here keeps the run consistent.
		return
	}
	// The sender: a traced duplicate or hit names it, and hangs under the
	// forward it arrived on.
	from := q.Path[len(q.Path)-2]
	if pq.markSeen(p) {
		net.emit(trace.QueryDuplicate, pq, q.ID, q.span, p, from, "")
		return // duplicate: already counted at send time
	}
	// Storage hit?
	if f, ok := net.storageMatch(p, pq.q, pq.sig); ok {
		n := &net.nodes[p]
		net.counts.StorageHits++
		hit := net.emitFile(trace.StorageHit, pq, q.ID, q.span, p, from, f)
		rsp := net.newResponse(q, f, true, hit)
		rsp.Providers = append(rsp.Providers, cache.Provider{Peer: p, LocID: n.Loc, LastSeen: net.Engine.Now()})
		net.learn(n, pq, f)
		net.sendResponse(p, rsp)
		return
	}
	// Response-index hit?
	if ms := net.lookupRI(p, pq.q, pq.sig, net.Engine.Now()); len(ms) != 0 {
		n := &net.nodes[p]
		m := net.selectIndexMatch(ms, pq.originLoc)
		net.counts.CacheHits++
		hit := net.emitFile(trace.CacheHit, pq, q.ID, q.span, p, from, m.File)
		rsp := net.newResponse(q, m.File, false, hit)
		rsp.Providers = net.orderProvidersForOrigin(rsp.Providers, m.Providers, pq.originLoc)
		net.learn(n, pq, m.File)
		net.sendResponse(p, rsp)
		return
	}
	net.counts.CacheMisses++
	net.forward(p, q)
}

// learn is natural-replication learning at answering peer n: under Learn,
// where the row's placement caches f, n records the requester as a new
// provider ("peer B then adds in its RI the entry (E,1) as a new provider
// of f", §4.1.2). n is never the requester, which marked itself seen at
// submission.
func (net *Network) learn(n *Node, pq *pendingQuery, f keywords.Filename) {
	if net.spec.Learn && net.places(n.ID, f, pq.q) {
		n.RI.Put(f, pq.origin, pq.originLoc, net.Engine.Now())
	}
}

// newResponse takes a response from the pool and resets every field, keeping
// the pooled value's buffers: everything but the providers is what it copies
// from the query (q is released when its delivery returns, pq may be
// recycled once the query is finalised, so the response keeps pq only for
// the id-checked accounting) and the reverse path; hit is the hit's trace
// span. It is the one place a pooled response is reset; the walk's end only
// Puts it back.
func (net *Network) newResponse(q *QueryMsg, f keywords.Filename, fromStorage bool, hit int32) *ResponseMsg {
	pq := q.pq
	rsp := net.respPool.Get()
	*rsp = ResponseMsg{
		ID: q.ID, pq: pq, File: f, Providers: rsp.Providers[:0],
		QueryKws: pq.q, Origin: pq.origin, OriginLoc: pq.originLoc,
		HitHops: len(q.Path) - 1, FromStorage: fromStorage, span: hit,
		Path: append(rsp.Path[:0], q.Path[:len(q.Path)-1]...),
	}
	return rsp
}

// acquireMsg takes a query message from the pool; whoever does owns it
// until its delivery event has fired and Puts it back (a dropped event's is
// left to the GC). A fresh one gets its Path sized for the longest path
// there is (the origin plus TTL hops), so it never regrows; the backing
// arrays are carved from blocks, as the pool carves the messages.
func (net *Network) acquireMsg() *QueryMsg {
	m := net.msgPool.Get()
	if m.Path == nil {
		m.Path = sim.Carve(&net.pathBlock, net.Config.TTL+1)
	}
	return m
}

// gidOrFallback is the tail of selective routing: the candidates in group
// want, or, when there is none, the last-resort set. It reads the gids
// column, not the candidates' nodes.
func (net *Network) gidOrFallback(want int32, elig []overlay.PeerID) []overlay.PeerID {
	out := net.fwdBuf[:0]
	for _, nb := range elig {
		if net.gids[nb] == want {
			out = append(out, nb)
		}
	}
	if len(out) == 0 {
		return net.fallbackNeighbors(elig)
	}
	net.forwarding.GidMatched += uint64(len(out))
	return out
}

// fallbackFanout is how many neighbours a selective protocol falls back to
// when no neighbour matches its routing predicate: the highest-degree
// neighbour plus fallbackFanout-1 random others. 1 would reproduce a pure
// "highly connected neighbour as a last resort" walk; 2 keeps enough
// branching for the walk to cover a useful fraction of the overlay within
// TTL.
const fallbackFanout = 2

// fallbackNeighbors implements the last-resort forwarding set shared by the
// selective protocols: the highest-degree candidate (§4.2's "highly
// connected neighbor"; ties break towards the lower peer id, the earlier
// one in neighbour order) plus up to fallbackFanout-1 random other
// candidates to keep the walk from degenerating into a single path. It is
// nil when there is no candidate (every neighbour is on the query's path).
func (net *Network) fallbackNeighbors(elig []overlay.PeerID) []overlay.PeerID {
	out := net.fbBuf[:0]
	best, bestDeg := 0, -1
	for _, nb := range elig {
		if d := net.Graph.Degree(nb); d > bestDeg {
			best, bestDeg = len(out), d
		}
		out = append(out, nb)
	}
	net.fbBuf = out[:0]
	if len(out) == 0 {
		return nil
	}
	// The best moves to the front; the rest keep neighbour order, which is
	// the order the shuffle permutes.
	b := out[best]
	copy(out[1:best+1], out[:best])
	out[0] = b
	rest := out[1:]
	net.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	keep := 1 + min(fallbackFanout-1, len(rest))
	net.forwarding.Fallback += uint64(keep)
	return out[:keep]
}

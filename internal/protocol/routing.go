package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// forward runs the behaviour's neighbour selection and ships the query.
func (net *Network) forward(n *Node, q *QueryMsg, from overlay.PeerID) {
	if q.TTL <= 0 {
		return
	}
	targets := net.Behavior.Forward(net, n, q, from)
	for _, t := range targets {
		if t == n.ID || !net.Graph.Online(t) || !net.Graph.Linked(n.ID, t) {
			continue
		}
		branch := net.acquireMsg()
		branch.ID = q.ID
		branch.pq = q.pq
		branch.Q = q.Q
		branch.QGid = q.QGid
		branch.Origin = q.Origin
		branch.OriginLoc = q.OriginLoc
		branch.TTL = q.TTL - 1
		branch.Path = append(append(branch.Path[:0], q.Path...), t)
		net.send(n.ID, t, net.acquireQueryDeliver(n.ID, t, branch))
		q.pq.messages++ // forward only runs for a query still pending
		net.emit(trace.QueryForward, q.ID, t, n.ID, "")
	}
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
// copied, never aliased.
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
	if pq.markSeen(p) {
		net.emit(trace.QueryDuplicate, q.ID, p, -1, "")
		return // duplicate: already counted at send time
	}
	n := net.nodes[p]

	// Storage hit?
	if f, ok := n.storageMatch(q.Q); ok {
		net.counts.StorageHits++
		net.emit(trace.StorageHit, q.ID, p, -1, f.String())
		rsp := net.respPool.Get()
		rsp.ID = q.ID
		rsp.File = f
		rsp.Providers = append(rsp.Providers[:0], cache.Provider{Peer: p, LocID: n.Loc, LastSeen: net.Engine.Now()})
		rsp.QueryKws = q.Q
		rsp.Origin = q.Origin
		rsp.OriginLoc = q.OriginLoc
		rsp.Path = append(rsp.Path[:0], q.Path[:len(q.Path)-1]...)
		rsp.HitHops = len(q.Path) - 1
		rsp.FromStorage = true
		net.Behavior.OnAnswer(net, n, q, f)
		net.sendResponse(p, rsp)
		return
	}
	// Response-index hit?
	if ms := n.lookupRI(q.Q, pq.kwIdx, net.Engine.Now()); len(ms) != 0 {
		m := net.selectIndexMatch(ms, q)
		net.counts.CacheHits++
		net.emit(trace.CacheHit, q.ID, p, -1, m.File.String())
		rsp := net.respPool.Get()
		rsp.ID = q.ID
		rsp.File = m.File
		rsp.Providers = net.orderProvidersForOrigin(rsp.Providers[:0], m.Providers, q.OriginLoc)
		rsp.QueryKws = q.Q
		rsp.Origin = q.Origin
		rsp.OriginLoc = q.OriginLoc
		rsp.Path = append(rsp.Path[:0], q.Path[:len(q.Path)-1]...)
		rsp.HitHops = len(q.Path) - 1
		rsp.FromStorage = false
		net.Behavior.OnAnswer(net, n, q, m.File)
		net.sendResponse(p, rsp)
		return
	}
	net.counts.CacheMisses++
	net.forward(n, q, q.Path[len(q.Path)-2])
}

// acquireMsg takes a query message from the pool; whoever does owns it
// until its delivery event has fired and Puts it back (a dropped event's is
// left to the GC). A fresh one gets its Path sized for the longest path
// there is (the origin plus TTL hops), so it never regrows; the backing
// arrays are carved from blocks, as the pool carves the messages.
func (net *Network) acquireMsg() *QueryMsg {
	m := net.msgPool.Get()
	if m.Path == nil {
		n := net.Config.TTL + 1
		if len(net.pathBlock) < n {
			net.pathBlock = make([]overlay.PeerID, 64*n)
		}
		m.Path, net.pathBlock = net.pathBlock[:0:n], net.pathBlock[n:]
	}
	return m
}

// fallbackNeighbors implements the last-resort forwarding set shared by the
// selective protocols: the highest-degree eligible neighbour (§4.2's
// "highly connected neighbor") plus up to FallbackFanout-1 random other
// eligible neighbours to keep the walk from degenerating into a single
// path.
func (net *Network) fallbackNeighbors(n *Node, q *QueryMsg, from overlay.PeerID) []overlay.PeerID {
	best, ok := net.highestDegreeNeighbor(n, q, from)
	if !ok {
		return nil
	}
	eligible := net.eligBuf[:0]
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) || !net.Graph.Online(nb) {
			continue
		}
		eligible = append(eligible, nb)
	}
	net.eligBuf = eligible[:0]
	out := append(net.fbBuf[:0], best)
	net.fbBuf = out[:0]
	if net.Config.FallbackFanout <= 1 || len(eligible) == 1 {
		net.forwarding.Fallback++
		return out
	}
	// Random extras among the remaining eligible neighbours.
	rest := net.restBuf[:0]
	for _, nb := range eligible {
		if nb != best {
			rest = append(rest, nb)
		}
	}
	net.restBuf = rest[:0]
	net.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	extra := net.Config.FallbackFanout - 1
	if extra > len(rest) {
		extra = len(rest)
	}
	out = append(out, rest[:extra]...)
	net.forwarding.Fallback += uint64(len(out))
	return out
}

// highestDegreeNeighbor returns n's highest-degree neighbour not on the
// query path and not the sender — the "highly connected neighbor as a last
// resort" rule of §4.2. Ties break towards the lower peer id for
// determinism. ok is false when every neighbour is excluded.
func (net *Network) highestDegreeNeighbor(n *Node, q *QueryMsg, from overlay.PeerID) (overlay.PeerID, bool) {
	best := overlay.PeerID(-1)
	bestDeg := -1
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) || !net.Graph.Online(nb) {
			continue
		}
		if d := net.Graph.Degree(nb); d > bestDeg {
			best, bestDeg = nb, d
		}
	}
	return best, best >= 0
}

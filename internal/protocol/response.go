package protocol

import (
	"math"
	"slices"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/trace"
)

// selectIndexMatch picks among multiple matching cached filenames: prefer
// one with a provider in the origin's locality, then the one with most
// providers; of equals, the earliest.
func (net *Network) selectIndexMatch(ms []cache.Match, origin netmodel.LocID) cache.Match {
	best, bestLocal := ms[0], hasLocal(ms[0].Providers, origin)
	for _, m := range ms[1:] {
		local := hasLocal(m.Providers, origin)
		if local && !bestLocal || local == bestLocal && len(m.Providers) > len(best.Providers) {
			best, bestLocal = m, local
		}
	}
	return best
}

// hasLocal reports whether a provider sits in locality loc.
func hasLocal(ps []cache.Provider, loc netmodel.LocID) bool {
	return slices.ContainsFunc(ps, func(p cache.Provider) bool { return p.LocID == loc })
}

// orderProvidersForOrigin appends ps to dst so providers matching the
// origin's locality come first (the §4.1.2 answer-construction rule: the
// response contains the entry corresponding to the originator's locId plus
// other providers as alternatives).
func (net *Network) orderProvidersForOrigin(dst []cache.Provider, ps []cache.Provider, origin netmodel.LocID) []cache.Provider {
	for _, p := range ps {
		if p.LocID == origin {
			dst = append(dst, p)
		}
	}
	for _, p := range ps {
		if p.LocID != origin {
			dst = append(dst, p)
		}
	}
	return dst
}

// places reports whether peer p caches the index of f, found for query q,
// under the row's placement rule (Eq. 1).
func (net *Network) places(p overlay.PeerID, f keywords.Filename, q keywords.Query) bool {
	m := net.Config.GroupCount
	switch net.spec.Placement {
	case PlaceFilenameGid:
		return gidOfName(f, m) == int(net.gids[p])
	case PlaceKeywordGid:
		for i := range q.K() {
			if gidOfKeyword(q.KeywordAt(i), m) == int(net.gids[p]) {
				return true
			}
		}
	}
	return false
}

// sendResponse walks the response one hop back along the reverse path,
// letting each traversed node apply the protocol's caching rule, and
// completes the query at the origin. The response is mutated in place as it
// walks and is its own delivery event, so it is queued at most once.
func (net *Network) sendResponse(from overlay.PeerID, rsp *ResponseMsg) {
	rsp.dst = rsp.Path[len(rsp.Path)-1]
	rsp.Path = rsp.Path[:len(rsp.Path)-1]
	if rsp.pq.id == rsp.ID { // finalised queries stop counting
		rsp.pq.messages++
	}
	rsp.span = net.emit(trace.ResponseHop, rsp.pq, rsp.ID, rsp.span, rsp.dst, from)
	net.send(from, rsp.dst, rsp)
}

// deliverResponse processes the response at peer p: caching, then either
// completion (p is the origin) or the next reverse hop.
func (net *Network) deliverResponse(p overlay.PeerID, rsp *ResponseMsg) {
	if !net.Graph.Online(p) {
		net.respPool.Put(rsp)
		return // reverse path broken by churn; response is lost
	}
	n := &net.nodes[p]
	net.cacheResponse(n, rsp)
	if p == rsp.Origin {
		net.completeQuery(n, rsp)
		net.respPool.Put(rsp)
		return
	}
	net.sendResponse(p, rsp)
}

// cacheResponse applies the row's placement at reverse-path node n: a
// placing peer stores every provider rsp carries and, under Learn, the
// requester as a new one (§4.1.2's worked example: B caches (D,1) and
// (A,3)).
func (net *Network) cacheResponse(n *Node, rsp *ResponseMsg) {
	if !net.places(n.ID, rsp.File, rsp.QueryKws) {
		return
	}
	before, now := n.RI.Inserts()+n.RI.Refreshes(), net.Engine.Now()
	for _, p := range rsp.Providers {
		n.RI.Put(rsp.File, p.Peer, p.LocID, now)
	}
	if net.spec.Learn && rsp.Origin != n.ID {
		n.RI.Put(rsp.File, rsp.Origin, rsp.OriginLoc, now)
	}
	if n.RI.Inserts()+n.RI.Refreshes() != before {
		net.emitFile(trace.ResponseCached, rsp.pq, rsp.ID, rsp.span, n.ID, -1, rsp.File)
	}
}

// completeQuery runs requester-side provider selection and download
// accounting for the first arriving response; later responses are ignored.
func (net *Network) completeQuery(n *Node, rsp *ResponseMsg) {
	pq := rsp.pq
	if pq.id != rsp.ID || pq.answered {
		return
	}
	prov, ok := net.selectProvider(n, rsp.Providers)
	if !ok {
		return // all advertised providers are gone; await another response
	}
	pq.fromCache = !rsp.FromStorage
	net.completeDownload(rsp.ID, pq, n, rsp.File, prov, rsp.HitHops, rsp.span)
}

// completeDownload finalises the download bookkeeping: distance metric and
// natural replication (the requester becomes a provider, §3.1). Its trace
// event hangs under span parent, whatever delivered the answer.
func (net *Network) completeDownload(id QueryID, pq *pendingQuery, n *Node, f keywords.Filename, prov cache.Provider, hops int, parent int32) {
	pq.answered = true
	pq.rtt = net.Model.RTT(int(n.ID), int(prov.Peer))
	pq.sameLoc = prov.LocID == n.Loc
	pq.hops = int32(hops)
	n.AddFile(f)
	if net.tracer != nil {
		net.record(pq, id, trace.Record{Kind: trace.DownloadComplete, Parent: parent, Peer: int32(n.ID), From: int32(prov.Peer),
			File: f, RTT: pq.rtt, SameLoc: pq.sameLoc})
	}
}

// selectProvider picks the download source at requester n among the online
// providers of ps (an index under churn goes stale): under LocSelect the
// §5.1 rule, a provider in n's locality, else the least measured RTT;
// otherwise the first — a protocol blind to location has no basis for
// preferring one copy over another. It fails when no provider is online.
func (net *Network) selectProvider(n *Node, ps []cache.Provider) (cache.Provider, bool) {
	live := net.provBuf[:0]
	for _, p := range ps {
		if net.Graph.Online(p.Peer) {
			live = append(live, p)
		}
	}
	net.provBuf = live[:0]
	if len(live) == 0 {
		return cache.Provider{}, false
	}
	if !net.spec.LocSelect {
		return live[0], true
	}
	for _, p := range live {
		if p.LocID == n.Loc {
			return p, true
		}
	}
	best, bestRTT := live[0], math.Inf(1)
	for _, p := range live {
		if rtt := net.Model.RTT(int(n.ID), int(p.Peer)); rtt < bestRTT {
			best, bestRTT = p, rtt
		}
	}
	return best, true
}

package protocol

import (
	"strconv"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/trace"
)

// selectIndexMatch picks among multiple matching cached filenames: prefer
// the one with a provider in the origin's locality, then the one with most
// providers.
func (net *Network) selectIndexMatch(ms []cache.Match, origin netmodel.LocID) cache.Match {
	best := ms[0]
	bestScore := -1
	for _, m := range ms {
		score := len(m.Providers)
		for _, pr := range m.Providers {
			if pr.LocID == origin {
				score += 1000
				break
			}
		}
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
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

// sendResponse walks the response one hop back along the reverse path,
// letting each traversed node apply the protocol's caching rule, and
// completes the query at the origin. The response is mutated in place as it
// walks and is its own delivery event, so it is queued at most once.
func (net *Network) sendResponse(from overlay.PeerID, rsp *ResponseMsg) {
	if len(rsp.Path) == 0 {
		// The answering node is the origin's neighbourless case; deliver
		// locally (should not happen: origin handles local hits).
		net.deliverResponse(rsp.Origin, rsp)
		return
	}
	rsp.dst = rsp.Path[len(rsp.Path)-1]
	rsp.Path = rsp.Path[:len(rsp.Path)-1]
	if rsp.pq.id == rsp.ID { // finalised queries stop counting
		rsp.pq.messages++
	}
	rsp.span = net.emit(trace.ResponseHop, rsp.pq, rsp.ID, rsp.span, rsp.dst, from, "")
	net.send(from, rsp.dst, rsp)
}

// deliverResponse processes the response at peer p: caching, then either
// completion (p is the origin) or the next reverse hop.
func (net *Network) deliverResponse(p overlay.PeerID, rsp *ResponseMsg) {
	if !net.Graph.Online(p) {
		net.respPool.Put(rsp)
		return // reverse path broken by churn; response is lost
	}
	n := net.nodes[p]
	before := n.RI.Inserts() + n.RI.Refreshes()
	net.Behavior.CacheResponse(net, n, rsp)
	if n.RI.Inserts()+n.RI.Refreshes() != before {
		net.emitFile(trace.ResponseCached, rsp.pq, rsp.ID, rsp.span, p, -1, rsp.File)
	}
	if p == rsp.Origin {
		net.completeQuery(n, rsp)
		net.respPool.Put(rsp)
		return
	}
	net.sendResponse(p, rsp)
}

// completeQuery runs requester-side provider selection and download
// accounting for the first arriving response; later responses are ignored.
func (net *Network) completeQuery(n *Node, rsp *ResponseMsg) {
	pq := rsp.pq
	if pq.id != rsp.ID || pq.answered {
		return
	}
	prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(rsp.Providers))
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
	pq.hops = hops
	n.AddFile(f)
	if net.tracer != nil {
		d := f.AppendName(net.detailBuf[:0])
		d = append(d, " rtt="...)
		d = strconv.AppendFloat(d, pq.rtt, 'f', 1, 64)
		d = append(d, "ms sameLoc="...)
		d = strconv.AppendBool(d, pq.sameLoc)
		net.detailBuf = d
		net.emit(trace.DownloadComplete, pq, id, parent, n.ID, prov.Peer, string(d))
	}
}

// liveProviders filters out offline providers (stale indexes under churn)
// into the provider scratch buffer, consumed synchronously by
// SelectProvider.
func (net *Network) liveProviders(ps []cache.Provider) []cache.Provider {
	out := net.provBuf[:0]
	for _, p := range ps {
		if net.Graph.Online(p.Peer) {
			out = append(out, p)
		}
	}
	net.provBuf = out[:0]
	return out
}

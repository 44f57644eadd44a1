package protocol

import (
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// acquirePending takes a pendingQuery from the pool for query id, keeping
// the pooled value's buffers: the seen set emptied, the positions emptied.
// The query's signature is computed here, once.
// A fresh value under Bloom routing gets positions carved for MaxK keywords
// of K each, as acquireMsg carves a path.
func (net *Network) acquirePending(id QueryID, origin overlay.PeerID, q keywords.Query) *pendingQuery {
	pq := net.pqPool.Get()
	if pq.seen == nil {
		if bf := net.nodes[origin].shared.scratch; bf != nil {
			pq.kwIdx = sim.Carve(&net.kwBlock, keywords.MaxK*bf.K())
		}
	}
	seen, seenN := net.resetSeen(pq.seen)
	*pq = pendingQuery{
		net: net, id: id, q: q, origin: origin, originLoc: net.nodes[origin].Loc,
		// Hashed once per query: every Gid-routing hop consults the same value.
		gid: int32(gidOfQuery(q, net.Config.GroupCount)), sig: querySig(q),
		seen: seen, seenN: seenN, kwIdx: pq.kwIdx[:0],
	}
	return pq
}

// SubmitQuery injects a query at peer origin at the current virtual time:
// pending-query creation, posted as its own finalize event, the origin's
// local storage and index checks, and the first forwarding fan-out. It
// returns the QueryID.
func (net *Network) SubmitQuery(origin overlay.PeerID, q keywords.Query) QueryID {
	net.nextID++
	id := net.nextID
	pq := net.acquirePending(id, origin, q)

	net.counts.Submitted++
	net.counts.PendingHighWater = max(net.counts.PendingHighWater, net.counts.Submitted-net.counts.Finalized)
	net.Engine.PostEvent(net.Config.FinalizeAfter, pq)
	if net.tracer != nil {
		d := q.AppendString(net.detailBuf[:0])
		net.detailBuf = d
		net.emit(trace.QuerySubmit, pq, id, 0, origin, -1, string(d))
	}
	if !net.Graph.Online(origin) {
		return id
	}
	n := net.nodes[origin]
	pq.markSeen(origin)
	// Hashed once per query: every hop tests its neighbours' filters by
	// these positions, and first their fold against its own nbFold.
	pq.kwIdx = n.bloomPositions(pq.kwIdx, q)
	pq.fold = bloom.FoldIndexes(pq.kwIdx)
	// Local check first: the requester may already hold a matching file or
	// index.
	if f, ok := net.storageMatch(origin, q, pq.sig); ok {
		pq.answered = true
		pq.sameLoc = true
		net.counts.StorageHits++
		net.emitFile(trace.StorageHit, pq, id, trace.RootSpan, origin, -1, f)
		return id
	}
	if ms := net.lookupRI(origin, q, pq.sig, net.Engine.Now()); len(ms) != 0 {
		if prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(ms[0].Providers)); ok {
			pq.fromCache = true
			net.counts.CacheHits++
			hit := net.emitFile(trace.CacheHit, pq, id, trace.RootSpan, origin, -1, ms[0].File)
			net.completeDownload(id, pq, n, ms[0].File, prov, 0, hit)
			return id
		}
	}
	net.counts.CacheMisses++
	msg := net.acquireMsg()
	msg.ID = id
	msg.pq = pq
	msg.TTL = int32(net.Config.TTL)
	msg.span = trace.RootSpan
	msg.Path = append(msg.Path[:0], origin)
	net.forward(origin, msg)
	net.msgPool.Put(msg)
	return id
}

// queryRecord builds the metrics record for a resolved pending query.
func queryRecord(pq *pendingQuery) metrics.QueryRecord {
	return metrics.QueryRecord{
		Messages:     int(pq.messages),
		Success:      pq.answered,
		DownloadRTT:  pq.rtt,
		SameLocality: pq.sameLoc,
		FromCache:    pq.fromCache,
		Hops:         int(pq.hops),
	}
}

// finalize resolves the query when its own event fires: it seals the
// record — into the collector unless the query is a warmup one — and
// recycles the state, zeroing its id so messages still in flight find it
// stale.
func (net *Network) finalize(pq *pendingQuery) {
	id := pq.id
	net.counts.Finalized++
	if !pq.answered {
		net.emit(trace.QueryFailed, pq, id, trace.RootSpan, pq.origin, -1, "")
	}
	net.emit(trace.QueryFinalize, pq, id, trace.RootSpan, pq.origin, -1, "")
	if id > net.warmup {
		net.Collector.Record(queryRecord(pq))
	}
	pq.id = 0
	net.pqPool.Put(pq)
}

// Measure makes col the collector of the run about to start and its first
// warmup queries unmeasured: they run with full protocol effect, but
// finalize records only the queries after them. Ids follow submission order,
// so a warmup query still in flight when the first measured one is
// submitted stays out of col. Call it before the first submission.
func (net *Network) Measure(col *metrics.Collector, warmup int) {
	net.Collector = col
	net.warmup = QueryID(warmup)
}

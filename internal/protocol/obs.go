package protocol

import "github.com/p2prepro/locaware/internal/obs"

// Metric families owned by the protocol layer.
const (
	MetricSubmitted   = "protocol_queries_submitted_total"
	MetricFinalized   = "protocol_queries_finalized_total"
	MetricCacheHits   = "protocol_cache_hits_total"
	MetricCacheMisses = "protocol_cache_misses_total"
	MetricStorageHits = "protocol_storage_hits_total"
	MetricPendingHW   = "protocol_pending_queries_high_water"
	MetricForwards    = "protocol_forwards_total"
	MetricControlMsgs = "protocol_control_messages_total"
	MetricControlBits = "protocol_control_bits_total"
	MetricStaleBlooms = "protocol_stale_bloom_fallbacks_total"
	MetricPoolFree    = "protocol_pool_free"
)

// RegisterMetrics pre-registers every protocol metric family so scrape
// surfaces advertise the catalog before the first instrumented run.
func RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricSubmitted, "Queries submitted.")
	reg.Counter(MetricFinalized, "Queries finalized.")
	reg.Counter(MetricCacheHits, "Response-index (cache) lookup hits.")
	reg.Counter(MetricCacheMisses, "Response-index lookups that missed and forwarded.")
	reg.Counter(MetricStorageHits, "Local storage matches.")
	reg.Gauge(MetricPendingHW, "Highest in-flight pending-query count.")
	reg.CounterVec(MetricForwards, "Forwarding decisions by selection tier.", "tier")
	reg.Counter(MetricControlMsgs, "Gossip-plane control messages.")
	reg.Counter(MetricControlBits, "Gossip-plane control traffic in bits.")
	reg.Counter(MetricStaleBlooms, "Bloom installs that fell back to the published filter.")
	reg.GaugeVec(MetricPoolFree, "Pooled objects on free lists at end of run, by pool.", "pool")
}

// netInstr is a network's observability cell: plain increments on the hot
// path, folded into the shared registry at the end of the run. Nil when
// instrumentation is disabled — every hook is a single pointer check.
type netInstr struct {
	cell        obs.Cell
	submitted   *obs.LocalCounter
	finalized   *obs.LocalCounter
	cacheHits   *obs.LocalCounter
	cacheMisses *obs.LocalCounter
	storageHits *obs.LocalCounter
	pendingHW   *obs.LocalMax
}

// EnableObs attaches instrumentation feeding reg. Call before the run
// starts; the registry may be shared across concurrent runs (totals
// accumulate), while each network keeps its own cell for per-run
// snapshots. Instrumentation never touches RNG streams or event order:
// runs stay bit-identical with it enabled.
func (net *Network) EnableObs(reg *obs.Registry) {
	in := &netInstr{}
	in.submitted = in.cell.Counter(reg.Counter(MetricSubmitted, "Queries submitted."))
	in.finalized = in.cell.Counter(reg.Counter(MetricFinalized, "Queries finalized."))
	in.cacheHits = in.cell.Counter(reg.Counter(MetricCacheHits, "Response-index (cache) lookup hits."))
	in.cacheMisses = in.cell.Counter(reg.Counter(MetricCacheMisses, "Response-index lookups that missed and forwarded."))
	in.storageHits = in.cell.Counter(reg.Counter(MetricStorageHits, "Local storage matches."))
	in.pendingHW = in.cell.Max(reg.Gauge(MetricPendingHW, "Highest in-flight pending-query count."))
	net.instr = in
}

// DrainObs folds pending instrumentation into the registry; a no-op when
// EnableObs was never called.
func (net *Network) DrainObs() {
	if net.instr != nil {
		net.instr.cell.Drain()
	}
}

// ObsSnapshot is a per-run summary of the protocol-layer instrumentation,
// assembled from this network's own cell (the registry may be shared).
type ObsSnapshot struct {
	Submitted        uint64
	Finalized        uint64
	CacheHits        uint64
	CacheMisses      uint64
	StorageHits      uint64
	PendingHighWater uint64
}

// ObsStats returns this run's protocol instrumentation. Zero value when
// EnableObs was never called.
func (net *Network) ObsStats() ObsSnapshot {
	in := net.instr
	if in == nil {
		return ObsSnapshot{}
	}
	return ObsSnapshot{
		Submitted:        in.submitted.Total(),
		Finalized:        in.finalized.Total(),
		CacheHits:        in.cacheHits.Total(),
		CacheMisses:      in.cacheMisses.Total(),
		StorageHits:      in.storageHits.Total(),
		PendingHighWater: in.pendingHW.Max(),
	}
}

// PoolSizes reports the free-list length of every pooled object type — the
// end-of-run pool occupancy folded into protocol_pool_free. It allocates;
// snapshot paths only.
func (net *Network) PoolSizes() map[string]int {
	return map[string]int{
		"pending":          net.pqPool.Len(),
		"query-msg":        net.msgPool.Len(),
		"response-msg":     net.respPool.Len(),
		"query-deliver":    net.qdPool.Len(),
		"response-deliver": net.rdPool.Len(),
		"finalize":         net.finPool.Len(),
		"bloom-install":    net.biPool.Len(),
	}
}

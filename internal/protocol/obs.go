package protocol

import (
	"github.com/p2prepro/locaware/internal/obs"
)

// Metric families owned by the protocol layer.
const (
	MetricSubmitted    = "protocol_queries_submitted_total"
	MetricFinalized    = "protocol_queries_finalized_total"
	MetricCacheHits    = "protocol_cache_hits_total"
	MetricCacheMisses  = "protocol_cache_misses_total"
	MetricStorageHits  = "protocol_storage_hits_total"
	MetricBloomCopies  = "protocol_bloom_install_copies_total"
	MetricPendingHW    = "protocol_pending_queries_high_water"
	MetricWatermarkLag = "protocol_finalize_watermark_lag_high_water"
	MetricForwards     = "protocol_forwards_total"
	MetricControlMsgs  = "protocol_control_messages_total"
	MetricControlBits  = "protocol_control_bits_total"
	MetricStaleBlooms  = "protocol_stale_bloom_fallbacks_total"
	MetricPoolFree     = "protocol_pool_free"
)

// RegisterMetrics pre-registers every protocol metric family so scrape
// surfaces advertise the catalog before the first instrumented run.
func RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricSubmitted, "Queries submitted.")
	reg.Counter(MetricFinalized, "Queries finalized.")
	reg.Counter(MetricCacheHits, "Response-index (cache) lookup hits.")
	reg.Counter(MetricCacheMisses, "Response-index lookups that missed and forwarded.")
	reg.Counter(MetricStorageHits, "Local storage matches.")
	reg.Counter(MetricBloomCopies, "Cross-shard bloom installs that copied the announce snapshot.")
	reg.Gauge(MetricPendingHW, "Highest in-flight pending-query count on any shard.")
	reg.Gauge(MetricWatermarkLag, "Highest issued-minus-finalized QueryID lag at an epoch flush.")
	reg.CounterVec(MetricForwards, "Forwarding decisions by selection tier.", "tier")
	reg.Counter(MetricControlMsgs, "Gossip-plane control messages.")
	reg.Counter(MetricControlBits, "Gossip-plane control traffic in bits.")
	reg.Counter(MetricStaleBlooms, "Bloom installs that fell back to the published filter.")
	reg.GaugeVec(MetricPoolFree, "Pooled objects on free lists at end of run, by pool.", "pool")
}

// shardInstr is one shard's observability cell: plain increments on the
// hot path, folded into the shared registry at the sequential epoch
// flush (or end of run). Nil when instrumentation is disabled — every
// hook is a single pointer check.
type shardInstr struct {
	cell        obs.Cell
	submitted   *obs.LocalCounter
	finalized   *obs.LocalCounter
	cacheHits   *obs.LocalCounter
	cacheMisses *obs.LocalCounter
	storageHits *obs.LocalCounter
	bloomCopies *obs.LocalCounter
	pendingHW   *obs.LocalMax
}

// EnableObs attaches per-shard instrumentation feeding reg. Call before
// the run starts; the registry may be shared across concurrent runs
// (totals accumulate), while each network keeps its own cells for
// per-run snapshots. Instrumentation never touches RNG streams or event
// order: runs stay bit-identical with it enabled.
func (net *Network) EnableObs(reg *obs.Registry) {
	net.obsReg = reg
	net.obsLag = reg.Gauge(MetricWatermarkLag, "Highest issued-minus-finalized QueryID lag at an epoch flush.")
	submitted := reg.Counter(MetricSubmitted, "Queries submitted.")
	finalized := reg.Counter(MetricFinalized, "Queries finalized.")
	cacheHits := reg.Counter(MetricCacheHits, "Response-index (cache) lookup hits.")
	cacheMisses := reg.Counter(MetricCacheMisses, "Response-index lookups that missed and forwarded.")
	storageHits := reg.Counter(MetricStorageHits, "Local storage matches.")
	bloomCopies := reg.Counter(MetricBloomCopies, "Cross-shard bloom installs that copied the announce snapshot.")
	pendingHW := reg.Gauge(MetricPendingHW, "Highest in-flight pending-query count on any shard.")
	for _, st := range net.states {
		in := &shardInstr{}
		in.submitted = in.cell.Counter(submitted)
		in.finalized = in.cell.Counter(finalized)
		in.cacheHits = in.cell.Counter(cacheHits)
		in.cacheMisses = in.cell.Counter(cacheMisses)
		in.storageHits = in.cell.Counter(storageHits)
		in.bloomCopies = in.cell.Counter(bloomCopies)
		in.pendingHW = in.cell.Max(pendingHW)
		st.instr = in
	}
}

// drainObsLocked folds every shard's cell into the registry and refreshes
// the watermark-lag gauge. Sequential contexts only (epoch flush, end of
// run).
func (net *Network) drainObsLocked() {
	for _, st := range net.states {
		st.instr.cell.Drain()
	}
	if net.sharded {
		if lag := uint64(net.nextID - net.finalizedWatermark); lag > net.obsLagHW {
			net.obsLagHW = lag
		}
		net.obsLag.SetMax(int64(net.obsLagHW))
	}
}

// DrainObs folds pending instrumentation into the registry; a no-op when
// EnableObs was never called.
func (net *Network) DrainObs() {
	if net.obsReg == nil {
		return
	}
	net.drainObsLocked()
}

// ObsSnapshot is a per-run summary of the protocol-layer instrumentation,
// assembled from this network's own cells (the registry may be shared).
type ObsSnapshot struct {
	Submitted           uint64
	Finalized           uint64
	CacheHits           uint64
	CacheMisses         uint64
	StorageHits         uint64
	BloomInstallCopies  uint64
	PendingHighWater    uint64
	WatermarkLagHighWtr uint64
}

// ObsStats sums this run's protocol instrumentation across shards. Zero
// value when EnableObs was never called.
func (net *Network) ObsStats() ObsSnapshot {
	var s ObsSnapshot
	if net.obsReg == nil {
		return s
	}
	for _, st := range net.states {
		in := st.instr
		s.Submitted += in.submitted.Total()
		s.Finalized += in.finalized.Total()
		s.CacheHits += in.cacheHits.Total()
		s.CacheMisses += in.cacheMisses.Total()
		s.StorageHits += in.storageHits.Total()
		s.BloomInstallCopies += in.bloomCopies.Total()
		if hw := in.pendingHW.Max(); hw > s.PendingHighWater {
			s.PendingHighWater = hw
		}
	}
	s.WatermarkLagHighWtr = net.obsLagHW
	return s
}

// PoolSizes reports the free-list length of every pooled object type,
// summed across shards — the end-of-run pool occupancy folded into
// protocol_pool_free. It allocates; snapshot paths only.
func (net *Network) PoolSizes() map[string]int {
	out := make(map[string]int, 8)
	for _, st := range net.states {
		out["pending"] += st.pqPool.Len()
		out["query-msg"] += st.msgPool.Len()
		out["response-msg"] += st.respPool.Len()
		out["query-deliver"] += st.qdPool.Len()
		out["response-deliver"] += st.rdPool.Len()
		out["finalize"] += st.finPool.Len()
		out["bloom-install"] += st.biPool.Len()
		out["query-submit"] += st.qsPool.Len()
		out["bloom-snapshot"] += st.snapPool.Len()
	}
	return out
}

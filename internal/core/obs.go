package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/protocol"
)

// obsFamilies is the metric catalogue: every family a run reports, named
// and described here and nowhere else.
type obsFamilies struct {
	events      *obs.CounterVec
	queueHW     *obs.Gauge
	scheduled   *obs.Counter
	submitted   *obs.Counter
	finalized   *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	storageHits *obs.Counter
	pendingHW   *obs.Gauge
	forwards    *obs.CounterVec
	controlMsgs *obs.Counter
	controlBits *obs.Counter
	staleBlooms *obs.Counter
	poolFree    *obs.GaugeVec
}

// registerFamilies registers (or fetches) the catalogue on reg.
func registerFamilies(reg *obs.Registry) obsFamilies {
	return obsFamilies{
		events:      reg.CounterVec("sim_events_total", "Events delivered by kind.", "kind"),
		queueHW:     reg.Gauge("sim_queue_depth_high_water", "Highest event-queue depth seen."),
		scheduled:   reg.Counter("sim_events_scheduled_total", "Events scheduled."),
		submitted:   reg.Counter("protocol_queries_submitted_total", "Queries submitted."),
		finalized:   reg.Counter("protocol_queries_finalized_total", "Queries finalized."),
		cacheHits:   reg.Counter("protocol_cache_hits_total", "Response-index (cache) lookup hits."),
		cacheMisses: reg.Counter("protocol_cache_misses_total", "Response-index lookups that missed and forwarded."),
		storageHits: reg.Counter("protocol_storage_hits_total", "Local storage matches."),
		pendingHW:   reg.Gauge("protocol_pending_queries_high_water", "Highest in-flight pending-query count."),
		forwards:    reg.CounterVec("protocol_forwards_total", "Forwarding decisions by selection tier.", "tier"),
		controlMsgs: reg.Counter("protocol_control_messages_total", "Gossip-plane control messages."),
		controlBits: reg.Counter("protocol_control_bits_total", "Gossip-plane control traffic in bits."),
		staleBlooms: reg.Counter("protocol_stale_bloom_fallbacks_total", "Bloom installs that fell back to the published filter."),
		poolFree:    reg.GaugeVec("protocol_pool_free", "Pooled objects on free lists at end of run, by pool.", "pool"),
	}
}

// RegisterObsFamilies pre-registers every metric family on reg, so a scrape
// surface (locaware-exp -obs-addr) advertises the full catalog before the
// first instrumented run reports in. Idempotent.
func RegisterObsFamilies(reg *obs.Registry) { registerFamilies(reg) }

// RuntimeStats is one run's observability snapshot: what this simulation
// added to the registry (which may be shared across concurrent runs).
type RuntimeStats struct {
	// EventsByKind counts deliveries per event kind.
	EventsByKind map[string]uint64
	// EventsScheduled counts the events queued.
	EventsScheduled uint64
	// QueueDepthHighWater is the deepest the event queue got.
	QueueDepthHighWater uint64
	// EventsCancelled, Epochs, CrossShardEvents and BloomInstallCopies are
	// always zero. Declared because benchmark/trace.go:330, :213, :214 and
	// :336 read them; ROADMAP item 1(b) removes them.
	EventsCancelled    uint64
	Epochs             uint64
	CrossShardEvents   uint64
	BloomInstallCopies uint64
	// Counts holds the protocol-plane tallies.
	protocol.Counts
	// PoolFree is the per-pool free-list occupancy at end of run.
	PoolFree map[string]int
}

// Report renders the snapshot as an aligned, human-readable run report —
// what cmd/locaware-exp prints under -stats.
func (rs *RuntimeStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime stats:\n")
	fmt.Fprintf(&b, "  event loop:\n")
	fmt.Fprintf(&b, "    %-28s %d\n", "events scheduled", rs.EventsScheduled)
	fmt.Fprintf(&b, "    %-28s %d\n", "queue depth high water", rs.QueueDepthHighWater)
	if len(rs.EventsByKind) > 0 {
		fmt.Fprintf(&b, "  events by kind:\n")
		kinds := make([]string, 0, len(rs.EventsByKind))
		for k := range rs.EventsByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "    %-28s %d\n", k, rs.EventsByKind[k])
		}
	}
	fmt.Fprintf(&b, "  protocol:\n")
	fmt.Fprintf(&b, "    %-28s %d\n", "queries submitted", rs.Submitted)
	fmt.Fprintf(&b, "    %-28s %d\n", "queries finalized", rs.Finalized)
	fmt.Fprintf(&b, "    %-28s %d\n", "cache hits", rs.CacheHits)
	fmt.Fprintf(&b, "    %-28s %d\n", "cache misses", rs.CacheMisses)
	fmt.Fprintf(&b, "    %-28s %d\n", "storage hits", rs.StorageHits)
	fmt.Fprintf(&b, "    %-28s %d\n", "pending queries high water", rs.PendingHighWater)
	if len(rs.PoolFree) > 0 {
		fmt.Fprintf(&b, "  pool free lists:\n")
		pools := make([]string, 0, len(rs.PoolFree))
		for p := range rs.PoolFree {
			pools = append(pools, p)
		}
		sort.Strings(pools)
		for _, p := range pools {
			fmt.Fprintf(&b, "    %-28s %d\n", p, rs.PoolFree[p])
		}
	}
	return b.String()
}

// finishObs folds the run's counts — kept as plain fields by the engine and
// the network — into the registry, once, and attaches the per-run snapshot
// to res. The registry may be shared by the concurrent runs of a campaign:
// each adds (or, for a high-water mark, raises) one atomic per series. No-op
// without an attached registry.
func (s *Simulation) finishObs(res *RunResult) {
	if s.Cfg.Obs == nil {
		return
	}
	f := registerFamilies(s.Cfg.Obs)
	rs := &RuntimeStats{
		EventsByKind:        s.Engine.EventsByKind(),
		EventsScheduled:     s.Engine.Scheduled(),
		QueueDepthHighWater: uint64(s.Engine.QueueHighWater()),
		Counts:              s.Network.Counts(),
		PoolFree:            s.Network.PoolSizes(),
	}
	for kind, n := range rs.EventsByKind {
		f.events.With(kind).Add(n)
	}
	f.queueHW.SetMax(int64(rs.QueueDepthHighWater))
	f.scheduled.Add(rs.EventsScheduled)

	f.submitted.Add(rs.Submitted)
	f.finalized.Add(rs.Finalized)
	f.cacheHits.Add(rs.CacheHits)
	f.cacheMisses.Add(rs.CacheMisses)
	f.storageHits.Add(rs.StorageHits)
	f.pendingHW.SetMax(int64(rs.PendingHighWater))

	fwd := s.Network.Forwarding()
	f.forwards.With("bloom").Add(fwd.BloomMatched)
	f.forwards.With("gid").Add(fwd.GidMatched)
	f.forwards.With("fallback").Add(fwd.Fallback)
	f.forwards.With("flood").Add(fwd.FloodAll)
	f.controlMsgs.Add(s.Network.ControlMessages())
	f.controlBits.Add(s.Network.ControlBits())
	f.staleBlooms.Add(s.Network.StaleBloomFallbacks())
	for pool, n := range rs.PoolFree {
		f.poolFree.With(pool).SetMax(int64(n))
	}
	res.Runtime = rs
}

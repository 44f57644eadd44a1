package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
)

// MetricTraceDropped counts trace events discarded because the attached
// tracer sink's buffer overflowed (see trace.Buffer).
const MetricTraceDropped = "trace_events_dropped_total"

// RegisterObsFamilies pre-registers every event-loop and protocol metric
// family on reg, so a scrape surface (the campaign coordinator, a worker
// -obs-addr) advertises the full catalog before the first instrumented
// run reports in. Idempotent.
func RegisterObsFamilies(reg *obs.Registry) {
	sim.RegisterMetrics(reg)
	protocol.RegisterMetrics(reg)
	reg.Counter(MetricTraceDropped, "Trace events dropped by a full tracer buffer.")
}

// RuntimeStats is one run's observability snapshot: what this simulation
// contributed to the registry, assembled from its own shard-confined
// cells (the registry itself may be shared across concurrent runs).
type RuntimeStats struct {
	// Shards is the effective shard count the run executed with.
	Shards int
	// EventsByKind counts deliveries per event kind across all shards.
	EventsByKind map[string]uint64
	// EventsScheduled counts all schedule calls, including cancelled ones.
	EventsScheduled uint64
	// EventsCancelled counts cancelled events discarded by the scheduler
	// at pop time.
	EventsCancelled uint64
	// QueueDepthHighWater is the deepest any shard's event queue got.
	QueueDepthHighWater uint64
	// Epochs / CrossShardEvents / MaxEpochDrainSeconds describe the
	// sharded epoch loop (zero on a single queue).
	Epochs               uint64
	CrossShardEvents     uint64
	MaxEpochDrainSeconds float64
	// Protocol-plane counters (see protocol.ObsSnapshot).
	Submitted            uint64
	Finalized            uint64
	CacheHits            uint64
	CacheMisses          uint64
	StorageHits          uint64
	BloomInstallCopies   uint64
	PendingHighWater     uint64
	FinalizeWatermarkLag uint64
	// TraceEventsDropped counts trace events the attached tracer's buffer
	// discarded after filling (0 when untraced or nothing dropped). A
	// non-zero value means the trace is incomplete — raise the buffer
	// capacity or switch to a sampling flight recorder.
	TraceEventsDropped uint64
	// PoolFree is the per-pool free-list occupancy at end of run.
	PoolFree map[string]int
}

// Report renders the snapshot as an aligned, human-readable run report —
// what cmd/locaware-exp prints under -stats.
func (rs *RuntimeStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime stats:\n")
	fmt.Fprintf(&b, "  event loop:\n")
	shards := rs.Shards
	if shards < 1 {
		shards = 1
	}
	fmt.Fprintf(&b, "    %-28s %d\n", "shards", shards)
	fmt.Fprintf(&b, "    %-28s %d\n", "events scheduled", rs.EventsScheduled)
	fmt.Fprintf(&b, "    %-28s %d\n", "events cancelled", rs.EventsCancelled)
	fmt.Fprintf(&b, "    %-28s %d\n", "queue depth high water", rs.QueueDepthHighWater)
	if rs.Epochs > 0 {
		fmt.Fprintf(&b, "    %-28s %d\n", "epochs", rs.Epochs)
		fmt.Fprintf(&b, "    %-28s %d\n", "cross-shard events", rs.CrossShardEvents)
		fmt.Fprintf(&b, "    %-28s %.6f\n", "max epoch drain (s)", rs.MaxEpochDrainSeconds)
	}
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
	fmt.Fprintf(&b, "    %-28s %d\n", "bloom install copies", rs.BloomInstallCopies)
	fmt.Fprintf(&b, "    %-28s %d\n", "pending queries high water", rs.PendingHighWater)
	fmt.Fprintf(&b, "    %-28s %d\n", "finalize watermark lag", rs.FinalizeWatermarkLag)
	if rs.TraceEventsDropped > 0 {
		fmt.Fprintf(&b, "  warning: trace buffer overflowed; %d events dropped (trace is incomplete)\n", rs.TraceEventsDropped)
	}
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

// attachObs wires instrumentation into the loop and network. Called at
// build time so the hot path sees stable instr pointers for the whole
// run.
func (s *Simulation) attachObs(reg *obs.Registry) {
	RegisterObsFamilies(reg)
	if sh, ok := s.loop.(*sim.Sharded); ok {
		s.obsSh = sh.EnableObs(reg)
	} else {
		s.obsEng = s.Engine.EnableObs(reg)
	}
	s.Network.EnableObs(reg)
}

// finishObs drains every cell, folds the run's end-of-run totals
// (scheduled events, forwarding tiers, control traffic, pool
// occupancy) into the registry, and attaches the per-run snapshot to
// res. No-op without an attached registry.
func (s *Simulation) finishObs(res *RunResult) {
	reg := s.Cfg.Obs
	if reg == nil {
		return
	}
	if s.obsSh != nil {
		s.obsSh.Drain()
	} else if s.obsEng != nil {
		s.obsEng.Drain()
	}
	s.Network.DrainObs()

	var scheduled, cancelled uint64
	if sh, ok := s.loop.(*sim.Sharded); ok {
		for i := 0; i < sh.Shards(); i++ {
			scheduled += sh.Engine(i).Scheduled()
			cancelled += sh.Engine(i).Cancelled()
		}
	} else {
		scheduled = s.Engine.Scheduled()
		cancelled = s.Engine.Cancelled()
	}
	reg.Counter(sim.MetricScheduled, "").Add(scheduled)
	reg.Counter(sim.MetricCancelled, "").Add(cancelled)

	fwd := s.Network.Forwarding()
	fwdVec := reg.CounterVec(protocol.MetricForwards, "", "tier")
	fwdVec.With("bloom").Add(fwd.BloomMatched)
	fwdVec.With("gid").Add(fwd.GidMatched)
	fwdVec.With("fallback").Add(fwd.Fallback)
	fwdVec.With("flood").Add(fwd.FloodAll)
	reg.Counter(protocol.MetricControlMsgs, "").Add(s.Network.ControlMessages())
	reg.Counter(protocol.MetricControlBits, "").Add(s.Network.ControlBits())
	reg.Counter(protocol.MetricStaleBlooms, "").Add(s.Network.StaleBloomFallbacks())

	pools := s.Network.PoolSizes()
	poolVec := reg.GaugeVec(protocol.MetricPoolFree, "", "pool")
	for name, n := range pools {
		poolVec.With(name).SetMax(int64(n))
	}

	ps := s.Network.ObsStats()
	rs := &RuntimeStats{
		Shards:               s.Cfg.Shards,
		EventsScheduled:      scheduled,
		EventsCancelled:      cancelled,
		Submitted:            ps.Submitted,
		Finalized:            ps.Finalized,
		CacheHits:            ps.CacheHits,
		CacheMisses:          ps.CacheMisses,
		StorageHits:          ps.StorageHits,
		BloomInstallCopies:   ps.BloomInstallCopies,
		PendingHighWater:     ps.PendingHighWater,
		FinalizeWatermarkLag: ps.WatermarkLagHighWtr,
		PoolFree:             pools,
	}
	if s.obsSh != nil {
		rs.EventsByKind = s.obsSh.EventsByKind()
		rs.QueueDepthHighWater = s.obsSh.QueueHighWater()
		rs.Epochs = s.obsSh.Epochs()
		rs.CrossShardEvents = s.obsSh.CrossShardEvents()
		rs.MaxEpochDrainSeconds = s.obsSh.MaxEpochDrainSeconds()
	} else if s.obsEng != nil {
		rs.EventsByKind = s.obsEng.EventsByKind()
		rs.QueueDepthHighWater = s.obsEng.QueueHighWater()
	}
	if dc, ok := s.Network.TracerSink().(interface{ Dropped() uint64 }); ok {
		if d := dc.Dropped(); d > 0 {
			reg.Counter(MetricTraceDropped, "").Add(d)
			rs.TraceEventsDropped = d
		}
	}
	res.Runtime = rs
}

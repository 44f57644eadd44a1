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
// family on reg, so a scrape surface (locaware-exp -obs-addr) advertises
// the full catalog before the first instrumented run reports in.
// Idempotent.
func RegisterObsFamilies(reg *obs.Registry) {
	sim.RegisterMetrics(reg)
	protocol.RegisterMetrics(reg)
	reg.Counter(MetricTraceDropped, "Trace events dropped by a full tracer buffer.")
}

// RuntimeStats is one run's observability snapshot: what this simulation
// contributed to the registry, assembled from its own cells (the registry
// itself may be shared across concurrent runs).
type RuntimeStats struct {
	// EventsByKind counts deliveries per event kind.
	EventsByKind map[string]uint64
	// EventsScheduled counts all schedule calls, including cancelled ones.
	EventsScheduled uint64
	// EventsCancelled counts cancelled events discarded by the scheduler
	// at pop time.
	EventsCancelled uint64
	// QueueDepthHighWater is the deepest the event queue got.
	QueueDepthHighWater uint64
	// Epochs, CrossShardEvents and BloomInstallCopies are always zero.
	// Declared because benchmark/trace.go:213, :214 and :336 read them;
	// ROADMAP item 1(b) removes them.
	Epochs             uint64
	CrossShardEvents   uint64
	BloomInstallCopies uint64
	// Protocol-plane counters (see protocol.ObsSnapshot).
	Submitted        uint64
	Finalized        uint64
	CacheHits        uint64
	CacheMisses      uint64
	StorageHits      uint64
	PendingHighWater uint64
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
	fmt.Fprintf(&b, "    %-28s %d\n", "events scheduled", rs.EventsScheduled)
	fmt.Fprintf(&b, "    %-28s %d\n", "events cancelled", rs.EventsCancelled)
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

// attachObs wires instrumentation into the engine and network. Called at
// build time so the hot path sees stable instr pointers for the whole
// run.
func (s *Simulation) attachObs(reg *obs.Registry) {
	RegisterObsFamilies(reg)
	s.obsEng = s.Engine.EnableObs(reg)
	s.Network.EnableObs(reg)
}

// finishObs drains every cell, folds the run's end-of-run totals
// (scheduled events, forwarding tiers, control traffic, pool
// occupancy) into the registry, and attaches the per-run snapshot to
// res. No-op without an attached registry.
func (s *Simulation) finishObs(res *RunResult) {
	if s.obsEng == nil {
		return
	}
	reg := s.Cfg.Obs
	s.obsEng.Drain()
	s.Network.DrainObs()

	scheduled, cancelled := s.Engine.Scheduled(), s.Engine.Cancelled()
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
		EventsByKind:        s.obsEng.EventsByKind(),
		EventsScheduled:     scheduled,
		EventsCancelled:     cancelled,
		QueueDepthHighWater: s.obsEng.QueueHighWater(),
		Submitted:           ps.Submitted,
		Finalized:           ps.Finalized,
		CacheHits:           ps.CacheHits,
		CacheMisses:         ps.CacheMisses,
		StorageHits:         ps.StorageHits,
		PendingHighWater:    ps.PendingHighWater,
		PoolFree:            pools,
	}
	if dc, ok := s.Network.TracerSink().(interface{ Dropped() uint64 }); ok {
		if d := dc.Dropped(); d > 0 {
			reg.Counter(MetricTraceDropped, "").Add(d)
			rs.TraceEventsDropped = d
		}
	}
	res.Runtime = rs
}

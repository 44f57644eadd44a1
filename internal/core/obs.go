package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"github.com/p2prepro/locaware/internal/obs"
)

// RuntimeStats is one run's observability snapshot: the obs.Stats this
// simulation added to the registry (which may be shared across concurrent
// runs).
type RuntimeStats struct {
	obs.Stats
	// EventsCancelled, Epochs, CrossShardEvents and BloomInstallCopies are
	// always zero. Declared because benchmark/trace.go:330, :213, :214 and
	// :336 read them; ROADMAP item 1(b) removes them.
	EventsCancelled    uint64
	Epochs             uint64
	CrossShardEvents   uint64
	BloomInstallCopies uint64
}

// Report renders the snapshot as an aligned, human-readable run report —
// what cmd/locaware-exp prints under -stats.
func (rs *RuntimeStats) Report() string {
	var b strings.Builder
	row := func(name string, v uint64) { fmt.Fprintf(&b, "    %-28s %d\n", name, v) }
	section := func(title string, m map[string]uint64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s:\n", title)
		for _, k := range slices.Sorted(maps.Keys(m)) {
			row(k, m[k])
		}
	}
	fmt.Fprintf(&b, "runtime stats:\n")
	fmt.Fprintf(&b, "  event loop:\n")
	row("events scheduled", rs.EventsScheduled)
	row("queue depth high water", rs.QueueDepthHighWater)
	section("events by kind", rs.EventsByKind)
	fmt.Fprintf(&b, "  protocol:\n")
	row("queries submitted", rs.Submitted)
	row("queries finalized", rs.Finalized)
	row("cache hits", rs.CacheHits)
	row("cache misses", rs.CacheMisses)
	row("storage hits", rs.StorageHits)
	row("pending queries high water", rs.PendingHighWater)
	section("pool free lists", rs.PoolFree)
	return b.String()
}

// finishObs builds the run's obs.Stats from the plain counts the engine and
// the network keep, adds it to the registry once and attaches the per-run
// snapshot to res. No-op without an attached registry.
func (s *Simulation) finishObs(res *RunResult) {
	if s.Cfg.Obs == nil {
		return
	}
	net := s.Network
	c, fwd := net.Counts(), net.Forwarding()
	rs := &RuntimeStats{Stats: obs.Stats{
		EventsByKind:        s.Engine.EventsByKind(),
		EventsScheduled:     s.Engine.Scheduled(),
		QueueDepthHighWater: uint64(s.Engine.QueueHighWater()),
		Submitted:           c.Submitted,
		Finalized:           c.Finalized,
		CacheHits:           c.CacheHits,
		CacheMisses:         c.CacheMisses,
		StorageHits:         c.StorageHits,
		PendingHighWater:    c.PendingHighWater,
		ForwardsByTier: map[string]uint64{
			"bloom": fwd.BloomMatched, "gid": fwd.GidMatched, "fallback": fwd.Fallback, "flood": fwd.FloodAll,
		},
		ControlMessages: net.ControlMessages(),
		ControlBits:     net.ControlBits(),
		PoolFree:        net.PoolSizes(),
	}}
	s.Cfg.Obs.Add(rs.Stats)
	res.Runtime = rs
}

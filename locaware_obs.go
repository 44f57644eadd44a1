package locaware

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/campaign"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// Observer is a run-wide observability registry: attach one to
// Options.Observer (or CampaignOptions.Observer) and every simulation
// executed under it accumulates event-loop, protocol and campaign
// telemetry — counters, gauges and log-scale histograms — into one
// scrapeable surface. Instrumentation is provably inert: the hot path
// only increments shard-confined cells (merged at the sequential epoch
// barrier), never touches an RNG stream or event order, so results are
// byte-identical with or without an Observer, at any shard count.
//
// One Observer may be shared across concurrent runs; totals then cover
// all of them. Per-run snapshots are on Result.Runtime.
type Observer struct {
	reg *obs.Registry
}

// NewObserver returns an Observer with the full metric catalog
// pre-registered, so a scrape before the first run still advertises
// every family.
func NewObserver() *Observer {
	reg := obs.NewRegistry()
	core.RegisterObsFamilies(reg)
	campaign.RegisterMetrics(reg)
	return &Observer{reg: reg}
}

// Handler returns an http.Handler serving the Prometheus text exposition
// on /metrics and the runtime profiles on /debug/pprof/.
func (o *Observer) Handler() http.Handler { return obs.Handler(o.reg) }

// WriteMetrics writes the registry in Prometheus text exposition format
// (families and series in sorted order).
func (o *Observer) WriteMetrics(w io.Writer) error { return o.reg.WritePrometheus(w) }

// RuntimeStats is one run's observability snapshot — what that run
// contributed to its Observer, assembled from the run's own cells, so it
// is meaningful even when the Observer is shared.
type RuntimeStats struct {
	// Shards is the shard count the run was configured with (0 or 1 =
	// single event queue).
	Shards int
	// EventsByKind counts delivered events per kind (query-deliver,
	// response-deliver, gossip-round, ...) across all shards.
	EventsByKind map[string]uint64
	// EventsScheduled counts all schedule calls, including events later
	// dropped by the horizon.
	EventsScheduled uint64
	// EventsCancelled counts cancelled events the scheduler discarded
	// at pop time.
	EventsCancelled uint64
	// QueueDepthHighWater is the deepest any event queue got.
	QueueDepthHighWater uint64
	// Epochs, CrossShardEvents and MaxEpochDrainSeconds describe the
	// sharded epoch loop; zero on a single queue.
	Epochs               uint64
	CrossShardEvents     uint64
	MaxEpochDrainSeconds float64
	// Protocol-plane counters.
	Submitted            uint64
	Finalized            uint64
	CacheHits            uint64
	CacheMisses          uint64
	StorageHits          uint64
	BloomInstallCopies   uint64
	PendingHighWater     uint64
	FinalizeWatermarkLag uint64
	// TraceEventsDropped counts trace events discarded by a full tracer
	// buffer (RunTraced's bounded buffer). Non-zero means the trace is
	// incomplete — raise maxEvents, or switch to a FlightRecorder, whose
	// tail sampling never overflows. Always 0 when untraced.
	TraceEventsDropped uint64
	// PoolFree is per-pool free-list occupancy at end of run.
	PoolFree map[string]int
}

func liftRuntime(rs *core.RuntimeStats) *RuntimeStats {
	if rs == nil {
		return nil
	}
	return &RuntimeStats{
		Shards:               rs.Shards,
		EventsByKind:         rs.EventsByKind,
		EventsScheduled:      rs.EventsScheduled,
		EventsCancelled:      rs.EventsCancelled,
		QueueDepthHighWater:  rs.QueueDepthHighWater,
		Epochs:               rs.Epochs,
		CrossShardEvents:     rs.CrossShardEvents,
		MaxEpochDrainSeconds: rs.MaxEpochDrainSeconds,
		Submitted:            rs.Submitted,
		Finalized:            rs.Finalized,
		CacheHits:            rs.CacheHits,
		CacheMisses:          rs.CacheMisses,
		StorageHits:          rs.StorageHits,
		BloomInstallCopies:   rs.BloomInstallCopies,
		PendingHighWater:     rs.PendingHighWater,
		FinalizeWatermarkLag: rs.FinalizeWatermarkLag,
		TraceEventsDropped:   rs.TraceEventsDropped,
		PoolFree:             rs.PoolFree,
	}
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

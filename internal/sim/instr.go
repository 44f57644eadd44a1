package sim

import (
	"time"

	"github.com/p2prepro/locaware/internal/obs"
)

// Metric families owned by the event loop. Timing histograms use a fixed
// log-scale layout from 1µs to 1s.
const (
	MetricEvents         = "sim_events_total"
	MetricQueueHighWater = "sim_queue_depth_high_water"
	MetricScheduled      = "sim_events_scheduled_total"
	MetricCancelled      = "sim_events_cancelled_total"
	MetricEpochs         = "sim_epochs_total"
	MetricCrossShard     = "sim_cross_shard_events_total"
	MetricEpochDrain     = "sim_epoch_drain_seconds"
	MetricBarrierWait    = "sim_shard_barrier_wait_seconds"
)

func timingBuckets() []float64 { return obs.ExpBuckets(1e-6, 10, 7) }

// RegisterMetrics pre-registers every event-loop metric family so a
// scrape surface (the campaign coordinator) advertises the full catalog
// before the first instrumented run reports in.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterVec(MetricEvents, "Events delivered by kind.", "kind")
	reg.Gauge(MetricQueueHighWater, "Highest event-queue depth seen on any shard.")
	reg.Counter(MetricScheduled, "Events scheduled, including later-cancelled ones.")
	reg.Counter(MetricCancelled, "Cancelled events discarded at pop time.")
	reg.Counter(MetricEpochs, "Sharded epochs completed.")
	reg.Counter(MetricCrossShard, "Events routed between shards through the epoch mailbox.")
	reg.Histogram(MetricEpochDrain, "Wall-clock time draining one epoch across all shards.", timingBuckets())
	reg.Histogram(MetricBarrierWait, "Per-shard idle time at the epoch barrier (time waiting for the slowest shard).", timingBuckets())
}

// EngineInstr holds one engine's shard-confined instrumentation: a plain
// increment per delivery, drained into the shared registry only at
// sequential points (epoch boundaries, end of run).
type EngineInstr struct {
	cell    obs.Cell
	events  *obs.LocalCounterVec
	queueHW *obs.LocalMax
}

// NewEngineInstr builds engine instrumentation against reg.
func NewEngineInstr(reg *obs.Registry) *EngineInstr {
	in := &EngineInstr{}
	in.events = in.cell.CounterVec(reg.CounterVec(MetricEvents, "Events delivered by kind.", "kind"))
	in.queueHW = in.cell.Max(reg.Gauge(MetricQueueHighWater, "Highest event-queue depth seen on any shard."))
	return in
}

// record notes one delivery. Steady state is a map lookup and two plain
// increments — no atomics, no allocation.
func (in *EngineInstr) record(e *Engine, ev Event) {
	in.events.Get(instrKind(ev)).Inc()
	in.queueHW.Observe(uint64(e.queue.Len()))
}

// instrKind maps a delivered event to its metric label without
// allocating: named events use their constant name, anonymous ones share
// one fixed bucket.
func instrKind(ev Event) string {
	if n, ok := ev.(Named); ok {
		return n.EventName()
	}
	return "event"
}

// Drain folds pending counts into the registry. Sequential contexts only.
func (in *EngineInstr) Drain() { in.cell.Drain() }

// EventsByKind returns this engine's lifetime delivery counts per kind.
func (in *EngineInstr) EventsByKind() map[string]uint64 { return in.events.Totals() }

// QueueHighWater returns the lifetime queue-depth maximum.
func (in *EngineInstr) QueueHighWater() uint64 { return in.queueHW.Max() }

// EnableObs attaches instrumentation to a standalone engine.
func (e *Engine) EnableObs(reg *obs.Registry) *EngineInstr {
	in := NewEngineInstr(reg)
	e.instr = in
	return in
}

// ShardedInstr instruments the epoch loop: epoch count, cross-shard
// mailbox traffic, wall-clock drain time per epoch and per-shard barrier
// waits, plus one EngineInstr per shard. All fields apart from the
// per-shard wait slots are touched only from the sequential epoch loop.
type ShardedInstr struct {
	epochs     *obs.Counter
	crossShard *obs.Counter
	drainSec   *obs.Histogram
	waitSec    *obs.Histogram
	engines    []*EngineInstr

	epochCount uint64
	crossCount uint64
	maxDrain   float64
	// waits[i] is written by shard i's worker goroutine and read after the
	// epoch's barrier join — never concurrently.
	waits []time.Duration
}

// EnableObs attaches instrumentation to the sharded loop and each of its
// engines. Wall-clock histograms record nondeterministic values, but
// nothing here feeds back into event order: the run stays bit-identical.
func (s *Sharded) EnableObs(reg *obs.Registry) *ShardedInstr {
	in := &ShardedInstr{
		epochs:     reg.Counter(MetricEpochs, "Sharded epochs completed."),
		crossShard: reg.Counter(MetricCrossShard, "Events routed between shards through the epoch mailbox."),
		drainSec:   reg.Histogram(MetricEpochDrain, "Wall-clock time draining one epoch across all shards.", timingBuckets()),
		waitSec:    reg.Histogram(MetricBarrierWait, "Per-shard idle time at the epoch barrier (time waiting for the slowest shard).", timingBuckets()),
		engines:    make([]*EngineInstr, len(s.engines)),
		waits:      make([]time.Duration, len(s.engines)),
	}
	for i, e := range s.engines {
		in.engines[i] = NewEngineInstr(reg)
		e.instr = in.engines[i]
	}
	s.instr = in
	return in
}

// endEpoch closes one epoch's accounting from the sequential loop.
func (in *ShardedInstr) endEpoch(drain time.Duration) {
	in.epochCount++
	in.epochs.Inc()
	sec := drain.Seconds()
	in.drainSec.Observe(sec)
	if sec > in.maxDrain {
		in.maxDrain = sec
	}
	for _, ei := range in.engines {
		ei.Drain()
	}
}

// recordWaits folds the per-shard drain durations of one parallel epoch
// into barrier-wait observations: each shard waited (slowest - own).
func (in *ShardedInstr) recordWaits() {
	var max time.Duration
	for _, w := range in.waits {
		if w > max {
			max = w
		}
	}
	for _, w := range in.waits {
		in.waitSec.Observe((max - w).Seconds())
	}
}

// Drain folds every engine's pending counts into the registry.
func (in *ShardedInstr) Drain() {
	for _, ei := range in.engines {
		ei.Drain()
	}
}

// Epochs returns the number of epochs completed this run.
func (in *ShardedInstr) Epochs() uint64 { return in.epochCount }

// CrossShardEvents returns the mailbox traffic this run.
func (in *ShardedInstr) CrossShardEvents() uint64 { return in.crossCount }

// MaxEpochDrainSeconds returns the slowest epoch drain this run.
func (in *ShardedInstr) MaxEpochDrainSeconds() float64 { return in.maxDrain }

// EventsByKind merges lifetime delivery counts across all shards.
func (in *ShardedInstr) EventsByKind() map[string]uint64 {
	out := make(map[string]uint64)
	for _, ei := range in.engines {
		for k, v := range ei.EventsByKind() {
			out[k] += v
		}
	}
	return out
}

// QueueHighWater returns the highest queue depth seen on any shard.
func (in *ShardedInstr) QueueHighWater() uint64 {
	var hw uint64
	for _, ei := range in.engines {
		if q := ei.QueueHighWater(); q > hw {
			hw = q
		}
	}
	return hw
}

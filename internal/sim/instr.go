package sim

import "github.com/p2prepro/locaware/internal/obs"

// Metric families owned by the event loop.
const (
	MetricEvents         = "sim_events_total"
	MetricQueueHighWater = "sim_queue_depth_high_water"
	MetricScheduled      = "sim_events_scheduled_total"
	MetricCancelled      = "sim_events_cancelled_total"
)

// RegisterMetrics pre-registers every event-loop metric family so a
// scrape surface (the campaign coordinator) advertises the full catalog
// before the first instrumented run reports in.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterVec(MetricEvents, "Events delivered by kind.", "kind")
	reg.Gauge(MetricQueueHighWater, "Highest event-queue depth seen.")
	reg.Counter(MetricScheduled, "Events scheduled, including later-cancelled ones.")
	reg.Counter(MetricCancelled, "Cancelled events discarded at pop time.")
}

// EngineInstr holds one engine's instrumentation in its own obs.Cell: a
// plain increment per delivery, drained into the registry (which the
// concurrent simulations of a campaign share) at the end of the run.
type EngineInstr struct {
	cell    obs.Cell
	events  *obs.LocalCounterVec
	queueHW *obs.LocalMax
}

// EnableObs attaches instrumentation feeding reg to the engine.
func (e *Engine) EnableObs(reg *obs.Registry) *EngineInstr {
	in := &EngineInstr{}
	in.events = in.cell.CounterVec(reg.CounterVec(MetricEvents, "Events delivered by kind.", "kind"))
	in.queueHW = in.cell.Max(reg.Gauge(MetricQueueHighWater, "Highest event-queue depth seen."))
	e.instr = in
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

// Drain folds pending counts into the registry; call from the engine's
// goroutine.
func (in *EngineInstr) Drain() { in.cell.Drain() }

// EventsByKind returns this engine's lifetime delivery counts per kind.
func (in *EngineInstr) EventsByKind() map[string]uint64 { return in.events.Totals() }

// QueueHighWater returns the lifetime queue-depth maximum.
func (in *EngineInstr) QueueHighWater() uint64 { return in.queueHW.Max() }

// Package obs is the run-wide observability layer: Stats, the counts a run
// reports; a Registry that sums them across runs; and the registry's
// Prometheus text exposition. The simulation hot path never touches it — a
// run counts in plain fields of its own, and core builds one Stats from them
// when the run ends and adds it to the registry, so the concurrent
// simulations of a campaign can share one registry and a scrape can read it
// while runs are in flight.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Stats is every value a metric family reports, for one run or, inside a
// Registry, summed over many: counters add, high waters and pool sizes keep
// the maximum.
type Stats struct {
	// EventsByKind counts deliveries per event kind.
	EventsByKind map[string]uint64
	// EventsScheduled counts the events queued.
	EventsScheduled uint64
	// QueueDepthHighWater is the deepest the event queue got.
	QueueDepthHighWater uint64
	// Submitted and Finalized count queries injected and sealed.
	Submitted, Finalized uint64
	// CacheHits counts response-index lookups that answered; CacheMisses
	// those that missed, so the peer forwarded the query on.
	CacheHits, CacheMisses uint64
	// StorageHits counts queries matched by a peer's shared storage.
	StorageHits uint64
	// PendingHighWater is the most queries ever in flight at once.
	PendingHighWater uint64
	// ForwardsByTier counts forwarding decisions by selection tier (bloom,
	// gid, fallback, flood).
	ForwardsByTier map[string]uint64
	// ControlMessages and ControlBits are the gossip plane's traffic.
	ControlMessages, ControlBits uint64
	// StaleBloomFallbacks counts Bloom installs that outlived their
	// announce buffer and fell back to the sender's published filter.
	StaleBloomFallbacks uint64
	// PoolFree is the free-list occupancy per pooled type at end of run.
	PoolFree map[string]uint64
}

// family is one metric family: its exposition name, help and type, and the
// Stats field it reads — value for a plain family, series for one with a
// label key.
type family struct {
	name, help, kind, label string
	value                   func(*Stats) *uint64
	series                  func(*Stats) *map[string]uint64
}

// families is the metric catalogue, sorted by name: every family a run
// reports is named, typed and described here and nowhere else.
var families = []family{
	{name: "protocol_cache_hits_total", help: "Response-index (cache) lookup hits.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.CacheHits }},
	{name: "protocol_cache_misses_total", help: "Response-index lookups that missed and forwarded.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.CacheMisses }},
	{name: "protocol_control_bits_total", help: "Gossip-plane control traffic in bits.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.ControlBits }},
	{name: "protocol_control_messages_total", help: "Gossip-plane control messages.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.ControlMessages }},
	{name: "protocol_forwards_total", help: "Forwarding decisions by selection tier.", kind: "counter", label: "tier",
		series: func(s *Stats) *map[string]uint64 { return &s.ForwardsByTier }},
	{name: "protocol_pending_queries_high_water", help: "Highest in-flight pending-query count.", kind: "gauge",
		value: func(s *Stats) *uint64 { return &s.PendingHighWater }},
	{name: "protocol_pool_free", help: "Pooled objects on free lists at end of run, by pool.", kind: "gauge", label: "pool",
		series: func(s *Stats) *map[string]uint64 { return &s.PoolFree }},
	{name: "protocol_queries_finalized_total", help: "Queries finalized.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.Finalized }},
	{name: "protocol_queries_submitted_total", help: "Queries submitted.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.Submitted }},
	{name: "protocol_stale_bloom_fallbacks_total", help: "Bloom installs that fell back to the published filter.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.StaleBloomFallbacks }},
	{name: "protocol_storage_hits_total", help: "Local storage matches.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.StorageHits }},
	{name: "sim_events_scheduled_total", help: "Events scheduled.", kind: "counter",
		value: func(s *Stats) *uint64 { return &s.EventsScheduled }},
	{name: "sim_events_total", help: "Events delivered by kind.", kind: "counter", label: "kind",
		series: func(s *Stats) *map[string]uint64 { return &s.EventsByKind }},
	{name: "sim_queue_depth_high_water", help: "Highest event-queue depth seen.", kind: "gauge",
		value: func(s *Stats) *uint64 { return &s.QueueDepthHighWater }},
}

// merge folds one run's value into the family's running total.
func (f family) merge(total, v uint64) uint64 {
	if f.kind == "gauge" {
		return max(total, v)
	}
	return total + v
}

// Registry is the running sum of every Stats added to it. All methods are
// safe for concurrent use.
type Registry struct {
	mu  sync.Mutex
	sum Stats
}

// NewRegistry returns a registry whose sum is zero.
func NewRegistry() *Registry { return &Registry{} }

// Add folds one run's Stats into the sum.
func (r *Registry) Add(s Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range families {
		if f.series == nil {
			total := f.value(&r.sum)
			*total = f.merge(*total, *f.value(&s))
			continue
		}
		total := f.series(&r.sum)
		if *total == nil {
			*total = make(map[string]uint64)
		}
		for label, v := range *f.series(&s) {
			(*total)[label] = f.merge((*total)[label], v)
		}
	}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the sum in Prometheus text exposition format
// (version 0.0.4): families sorted by name, a labelled family's series by
// label value. Every family's HELP and TYPE lines are written even before
// the first Add, so a scrape advertises the full catalogue; a plain family
// then reads 0 and a labelled one has no series yet.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	r.mu.Lock()
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		if f.series == nil {
			fmt.Fprintf(&b, "%s %d\n", f.name, *f.value(&r.sum))
			continue
		}
		series := *f.series(&r.sum)
		for _, label := range slices.Sorted(maps.Keys(series)) {
			fmt.Fprintf(&b, "%s{%s=\"%s\"} %d\n", f.name, f.label, labelEscaper.Replace(label), series[label])
		}
	}
	r.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

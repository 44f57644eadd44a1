package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// spanKinds are the delivered event kinds the observer keys spans by, with
// the layer metric prefix each reports under.
var spanKinds = []struct{ event, metric string }{
	{"query-deliver", "protocol.query_deliver"},
	{"response-deliver", "protocol.response_deliver"},
	{"query-finalize", "protocol.query_finalize"},
	{"gossip-round", "protocol.gossip_round"},
	{"bloom-install", "protocol.bloom_install"},
	{"query-submit", "core.query_submit"},
}

// otherKind collects the rare remaining typed events (churn ticks, the
// collector reset) so coverage still counts their time.
var otherKind = len(spanKinds)

const (
	// sampleEvery and maxSamples bound the raw spans kept per kind.
	sampleEvery = 64
	maxSamples  = 8192
)

// spanRecorder turns the engine's observer hook into spans: the hook fires
// just before every delivered typed event, so the interval to the next
// delivery is that event's self time — its handler plus the next queue pop.
// Everything stays in memory (per-kind accumulators and a bounded sample of
// raw spans) until the run ends. One recorder accumulates over several
// worlds.
type spanRecorder struct {
	count   []uint64
	self    []time.Duration
	samples [][]float64 // sampled span durations, ns

	kind    int // kind of the open span, -1 when none
	opened  time.Time
	started time.Time
	seq     uint64
	wall    time.Duration // Σ run walls
}

func newSpanRecorder() *spanRecorder {
	n := len(spanKinds) + 1
	return &spanRecorder{count: make([]uint64, n), self: make([]time.Duration, n), samples: make([][]float64, n), kind: -1}
}

func kindOf(ev sim.Event) int {
	name := sim.EventName(ev)
	for i := range spanKinds {
		if spanKinds[i].event == name {
			return i
		}
	}
	return otherKind
}

func (r *spanRecorder) observe(_ sim.Time, ev sim.Event) {
	now := time.Now()
	r.closeSpan(now)
	r.kind, r.opened = kindOf(ev), now
}

func (r *spanRecorder) closeSpan(now time.Time) {
	if r.kind < 0 {
		return
	}
	d := now.Sub(r.opened)
	r.count[r.kind]++
	r.self[r.kind] += d
	if r.seq%sampleEvery == 0 && len(r.samples[r.kind]) < maxSamples {
		r.samples[r.kind] = append(r.samples[r.kind], float64(d))
	}
	r.seq++
}

func (r *spanRecorder) begin(t time.Time) { r.kind, r.started = -1, t }

func (r *spanRecorder) end(t time.Time) {
	r.closeSpan(t)
	r.kind = -1
	r.wall += t.Sub(r.started)
}

// coverage is the share of the run's wall time the spans account for.
func (r *spanRecorder) coverage() float64 {
	var sum time.Duration
	for _, d := range r.self {
		sum += d
	}
	return sum.Seconds() / r.wall.Seconds()
}

// spanSummary is one kind's account in the report.
type spanSummary struct {
	Count      uint64  `json:"count"`
	SelfS      float64 `json:"self_s"`
	NsPerEvent float64 `json:"ns_per_event"`
	ShareOfRun float64 `json:"share_of_run"`
	Sampled    int     `json:"sampled"`
	SampleP50  float64 `json:"sample_p50_ns"`
	SampleP99  float64 `json:"sample_p99_ns"`
}

func (r *spanRecorder) summaries() map[string]spanSummary {
	out := make(map[string]spanSummary, len(r.count))
	for k := range r.count {
		name := "other"
		if k < len(spanKinds) {
			name = spanKinds[k].metric
		}
		s := spanSummary{Count: r.count[k], SelfS: r.self[k].Seconds(), Sampled: len(r.samples[k])}
		if s.Count > 0 {
			s.NsPerEvent = float64(r.self[k]) / float64(s.Count)
		}
		s.ShareOfRun = s.SelfS / r.wall.Seconds()
		if s.Sampled > 0 {
			sorted := slices.Clone(r.samples[k])
			slices.Sort(sorted)
			s.SampleP50, s.SampleP99 = quantile(sorted, 0.5), quantile(sorted, 0.99)
		}
		out[name] = s
	}
	return out
}

// layers is the traced run's account: the per-layer values the driver
// reads, plus the detail behind them.
type layers struct {
	Values    map[string]float64     `json:"values"`
	Spans     map[string]spanSummary `json:"spans"`
	Plain     []unit                 `json:"plain_units"`
	SimDigest string                 `json:"sim_digest"`
	Problems  []string               `json:"problems"`
}

// recorderPolicy is the flight-recorder variant's retention policy, the
// shape locaware-trace uses by default.
var recorderPolicy = trace.Policy{KeepFailed: true, SlowestN: 8}

// runTraced measures the layers. It is a separate run from the end-to-end
// one, never mixed into its numbers: the same leading worlds run untraced
// ("plain"), with the span observer, with the metrics registry, with the
// flight recorder and on two shards, interleaved world by world so slow
// drift in the host hits every variant alike. Then the layers are called
// directly (probes.go), the naive baseline floods the same overlay, and
// the world goes through the sweep and checkpoint layers as a campaign,
// checkpointing into a directory under scratch.
func (w *workload) runTraced(seed int64, scratch string) (*layers, error) {
	l := &layers{Values: make(map[string]float64)}
	worlds, err := w.tracedWorlds(seed)
	if err != nil {
		return nil, err
	}

	clock, err := newHostClock()
	if err != nil {
		return nil, err
	}
	defer clock.close()
	// Variants are compared by calibrated time (calib.go): a kernel sample
	// on either side of each run cancels what the host did meanwhile.
	var slowdowns []float64
	timed := func(wd world, rec *spanRecorder) (unit, *core.Simulation, *core.RunResult) {
		u, s, res := runSim(wd, rec)
		u.HostSlowdown = clock.slowdownSince()
		slowdowns = append(slowdowns, u.HostSlowdown)
		return u, s, res
	}

	rec := newSpanRecorder()
	var spans, observed, recorded, sharded []unit
	var counts programCounts
	for i, wd := range worlds {
		plain, _, res := timed(wd, nil)
		l.Plain = append(l.Plain, plain)
		counts.addRun(res)

		u, _, _ := timed(wd, rec)
		spans = append(spans, u)

		ow := wd
		ow.cfg.Obs = obs.NewRegistry()
		u, s, res := timed(ow, nil)
		observed = append(observed, u)
		counts.addObserved(s, res)

		rw := wd
		rw.cfg.TracePolicy = &recorderPolicy
		u, _, _ = timed(rw, nil)
		recorded = append(recorded, u)

		sw := wd
		sw.cfg.Shards = 2
		sw.cfg.Obs = obs.NewRegistry() // epochs and cross-shard counts live in the registry snapshot
		u, _, res = timed(sw, nil)
		sharded = append(sharded, u)
		if res.Err != nil {
			l.Problems = append(l.Problems, fmt.Sprintf("world %d on 2 shards: %v", i, res.Err))
		}
		if res.Runtime != nil {
			counts.epochs += res.Runtime.Epochs
			counts.crossShard += res.Runtime.CrossShardEvents
		}
	}
	// Observer, registry and recorder must be inert: same simulated
	// statistics as the untraced run, world by world.
	for i := range worlds {
		for name, us := range map[string][]unit{"span observer": spans, "metrics registry": observed, "flight recorder": recorded} {
			if us[i].Digest != l.Plain[i].Digest {
				l.Problems = append(l.Problems, fmt.Sprintf("world %d: %s changed the simulated statistics: sim_digest %s, untraced %s", i, name, us[i].Digest, l.Plain[i].Digest))
			}
		}
	}
	l.SimDigest = ensembleDigest(l.Plain)
	l.Spans = rec.summaries()

	v := l.Values
	v["host.slowdown"] = median(slowdowns)
	plainS, queries := sumRun(l.Plain)
	for k, kind := range spanKinds {
		s := l.Spans[kind.metric]
		v[kind.metric+".count"] = float64(rec.count[k])
		v[kind.metric+".self_s"] = s.SelfS
		v[kind.metric+".ns_per_event"] = s.NsPerEvent
	}
	v["trace.coverage"] = rec.coverage()
	overhead := func(us []unit) float64 { s, _ := sumRun(us); return s/plainS - 1 }
	v["trace.overhead_share"] = overhead(spans)
	v["obs.attached_overhead_share"] = overhead(observed)
	v["trace.recorder_overhead_share"] = overhead(recorded)
	shardedS, _ := sumRun(sharded)
	v["sim.sharded2.ns_per_query"] = shardedS * 1e9 / float64(queries)
	v["sim.sharded2.speedup"] = plainS / shardedS
	v["sim.sharded2.epochs"] = float64(counts.epochs)
	v["sim.sharded2.cross_shard_events"] = float64(counts.crossShard)
	counts.emit(v, plainS, queries)
	var gcCycles, gcPause float64
	for _, u := range l.Plain {
		gcCycles += float64(u.GCCycles)
		gcPause += float64(u.GCPauseNs)
	}
	v["runtime.gc_cycles"] = gcCycles
	v["runtime.gc_pause_total_ms"] = gcPause / 1e6

	buildSpans(v, worlds[0])
	probeLayers(v, worlds[0])
	naiveFlood(v, worlds[0], naiveQueries)
	scaleLadder(v, seed)

	dir, err := os.MkdirTemp(scratch, "checkpoints-")
	if err != nil {
		return nil, fmt.Errorf("creating checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)
	problems, err := w.sweepLayers(v, seed, dir)
	if err != nil {
		return nil, err
	}
	l.Problems = append(l.Problems, problems...)
	return l, nil
}

// tracedWorlds are the worlds every traced variant runs: the ensemble's
// leading units, or for the campaign the worlds of its centre cell.
func (w *workload) tracedWorlds(seed int64) ([]world, error) {
	if w.campaign {
		return campaignCellWorlds(campaignSpec, seed, campaignCentreCell)
	}
	worlds := make([]world, w.traceUnits)
	for i := range worlds {
		worlds[i] = w.world(unitSeed(seed, i))
	}
	return worlds, nil
}

// sumRun totals calibrated run time and queries.
func sumRun(us []unit) (runS float64, queries int) {
	for _, u := range us {
		runS += u.RunS / u.HostSlowdown
		queries += u.Queries
	}
	return runS, queries
}

// programCounts are counts the program itself makes; for a given seed they
// repeat exactly, so two commits compare exactly on them.
type programCounts struct {
	events, measured           uint64
	messages, successes        float64
	controlMessages            uint64
	fwdBloom, fwdGid           uint64
	fwdFallback, fwdFlood      uint64
	scheduled, cancelled       uint64
	queueHighWater             uint64
	pendingHighWater           uint64
	storageHits, staleFallback uint64
	cacheHits, cacheMisses     uint64
	installCopies              uint64
	epochs, crossShard         uint64
}

func (c *programCounts) addRun(res *core.RunResult) {
	col := res.Collector
	c.events += res.Events
	c.measured += uint64(col.Submitted())
	c.messages += float64(col.TotalMessages())
	c.successes += col.SuccessRate() * float64(col.Submitted())
	c.controlMessages += res.ControlMessages
	c.fwdBloom += res.Forwarding.BloomMatched
	c.fwdGid += res.Forwarding.GidMatched
	c.fwdFallback += res.Forwarding.Fallback
	c.fwdFlood += res.Forwarding.FloodAll
}

func (c *programCounts) addObserved(s *core.Simulation, res *core.RunResult) {
	rs := res.Runtime
	c.scheduled += rs.EventsScheduled
	c.cancelled += rs.EventsCancelled
	c.queueHighWater = max(c.queueHighWater, rs.QueueDepthHighWater)
	c.pendingHighWater = max(c.pendingHighWater, rs.PendingHighWater)
	c.storageHits += rs.StorageHits
	c.cacheHits += rs.CacheHits
	c.cacheMisses += rs.CacheMisses
	c.installCopies += rs.BloomInstallCopies
	c.staleFallback += s.Network.StaleBloomFallbacks()
}

func (c *programCounts) emit(v map[string]float64, plainS float64, queries int) {
	v["sim.events"] = float64(c.events)
	v["sim.events_per_query"] = float64(c.events) / float64(queries)
	v["sim.events_per_s"] = float64(c.events) / plainS
	v["sim.scheduled"] = float64(c.scheduled)
	v["sim.cancelled"] = float64(c.cancelled)
	v["sim.queue_depth_high_water"] = float64(c.queueHighWater)
	v["protocol.messages_per_query"] = c.messages / float64(c.measured)
	v["protocol.success_rate"] = c.successes / float64(c.measured)
	v["protocol.forwards_bloom"] = float64(c.fwdBloom)
	v["protocol.forwards_gid"] = float64(c.fwdGid)
	v["protocol.forwards_fallback"] = float64(c.fwdFallback)
	v["protocol.forwards_flood"] = float64(c.fwdFlood)
	v["protocol.control_messages"] = float64(c.controlMessages)
	v["protocol.pending_high_water"] = float64(c.pendingHighWater)
	v["protocol.storage_hits"] = float64(c.storageHits)
	v["protocol.stale_bloom_fallbacks"] = float64(c.staleFallback)
	v["cache.hits"] = float64(c.cacheHits)
	v["cache.misses"] = float64(c.cacheMisses)
	v["cache.hit_ratio"] = 0
	if n := c.cacheHits + c.cacheMisses; n > 0 {
		v["cache.hit_ratio"] = float64(c.cacheHits) / float64(n)
	}
	v["bloom.install_copies"] = float64(c.installCopies)
}

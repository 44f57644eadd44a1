package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
	"github.com/p2prepro/locaware/internal/workload"
)

// Simulation is one fully assembled run: topology + workload + one protocol
// behaviour.
type Simulation struct {
	Cfg      Config
	Engine   *sim.Engine
	Graph    *overlay.Graph
	Model    *netmodel.Model
	Locator  *netmodel.Locator
	Catalog  *workload.Catalog
	Network  *protocol.Network
	Behavior protocol.Behavior

	gen       *workload.Generator
	placement *workload.Placement
	scenario  *scenario.Runtime

	// obsEng / obsSh hold the run's event-loop instrumentation when
	// Cfg.Obs is set (exactly one is non-nil, matching the loop kind).
	obsEng *sim.EngineInstr
	obsSh  *sim.ShardedInstr

	// recorder is the run's flight recorder when Cfg.TracePolicy is set; it
	// is the tracer sink behind the network's per-shard trace cells, and
	// RunMeasured harvests its retained traces into the result.
	recorder *trace.FlightRecorder

	// forceSeq forces the sharded loop onto the sequential epoch drain.
	// Tracing no longer needs it (per-shard trace cells merge at the
	// barrier); it remains as the byte-identity test hook.
	forceSeq bool

	// loop drives the run: the sharded per-locality harness when
	// Cfg.Shards > 1 (Engine then aliases shard 0, which hosts the
	// control plane — submission chain, gossip and churn ticks, collector
	// reset), the bare Engine otherwise.
	loop runner

	// runDeadline is fixed by the last arrival's submission event; the
	// run's tail is bounded by it (plus the horizon).
	runDeadline sim.Time
}

// runner is the event-loop surface RunMeasured drives, satisfied by both
// *sim.Engine and *sim.Sharded.
type runner interface {
	RunUntil(deadline sim.Time, maxEvents uint64) uint64
	SetHorizon(t sim.Time)
	Now() sim.Time
	Processed() uint64
}

// NewSimulation assembles a simulation for the behaviour. All randomness
// derives from cfg.Seed via named streams, so two simulations with the same
// config but different behaviours see the same physical world, overlay,
// file placement and query sequence.
func NewSimulation(cfg Config, b protocol.Behavior) *Simulation {
	rng := sim.NewRNG(cfg.Seed)

	topoRng := rng.Stream("topology")
	pts := netmodel.Place(cfg.NumPeers, cfg.Placement, topoRng)
	model := netmodel.NewModel(pts, cfg.Placement.Side, cfg.Latency, cfg.Seed)
	lm := netmodel.NewLandmarks(cfg.Landmarks, cfg.Placement.Side, rng.Stream("landmarks"))
	locator := netmodel.NewLocator(model, lm)

	graph := overlay.BuildRandom(cfg.NumPeers,
		overlay.BuildConfig{AvgDegree: cfg.AvgDegree, MaxDegree: cfg.MaxDegree},
		rng.Stream("overlay"))

	catalog := workload.NewCatalog(cfg.Catalog, rng.Stream("catalog"))
	placement := workload.NewPlacement(cfg.NumPeers, cfg.FilesPerPeer, catalog, rng.Stream("placement"))

	// Validate the shard count: negatives (and zero) mean one queue, and
	// more shards than occupied localities would only create empty shard
	// engines — clamp down to the locality count instead.
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if occupied := len(locator.Census()); cfg.Shards > occupied {
		cfg.Shards = occupied
	}

	var eng *sim.Engine
	var loop runner
	var net *protocol.Network
	if cfg.Shards > 1 {
		// Dense-rank the occupied locIds so peers spread over all shards
		// even when the locId space is sparse: sorted occupied ids get
		// ranks 0,1,2,… and a peer's shard is its locality's rank modulo
		// the shard count. No shard is ever empty.
		census := locator.Census()
		occupied := make([]int, 0, len(census))
		for id := range census {
			occupied = append(occupied, int(id))
		}
		sort.Ints(occupied)
		rank := make(map[int]int, len(occupied))
		for i, id := range occupied {
			rank[id] = i
		}
		shardOf := func(peer int) int { return rank[int(locator.LocID(peer))] % cfg.Shards }
		// The epoch lookahead is derived, not configured: the minimum
		// cross-peer delay the workload can produce is the model's one-way
		// latency floor plus the per-hop processing delay, and every
		// cross-shard event is a peer-to-peer message — so epochs batch as
		// widely as correctness allows.
		lookahead := sim.FromMillis(model.MinOneWay()) + cfg.Protocol.ProcessingDelay
		sharded := sim.NewSharded(sim.ShardedOptions{
			Shards:    cfg.Shards,
			ShardOf:   shardOf,
			Lookahead: lookahead,
		})
		eng = sharded.Engine(0)
		loop = sharded
		// One protocol RNG stream per shard: shard 0 keeps the single-queue
		// stream name, so tie-breaking stays on familiar streams.
		shardRngs := make([]*rand.Rand, cfg.Shards)
		shardRngs[0] = rng.Stream("protocol")
		for i := 1; i < cfg.Shards; i++ {
			shardRngs[i] = rng.StreamN("protocol-shard", i)
		}
		net = protocol.NewShardedNetwork(sharded, shardOf, shardRngs, lookahead,
			graph, model, locator, b, cfg.Protocol, rng.Stream("gid"))
	} else {
		eng = sim.NewEngine()
		loop = eng
		net = protocol.NewNetwork(eng, graph, model, locator, b, cfg.Protocol,
			rng.Stream("gid"), rng.Stream("protocol"))
	}

	// Seed initial shared storage.
	for p := 0; p < cfg.NumPeers; p++ {
		for _, fid := range placement.Files(p) {
			net.Node(overlay.PeerID(p)).AddFile(catalog.File(fid))
		}
	}

	// Queries target PF, the set of popularly shared files (§3.3): only
	// files some peer actually provides are queryable. Catalogue ids are
	// popularity ranks, so sorting keeps the Zipf head on popular files.
	providerMap := placement.Providers()
	targets := make([]workload.FileID, 0, len(providerMap))
	for fid := range providerMap {
		targets = append(targets, fid)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	s := &Simulation{
		Cfg:       cfg,
		Engine:    eng,
		loop:      loop,
		Graph:     graph,
		Model:     model,
		Locator:   locator,
		Catalog:   catalog,
		Network:   net,
		Behavior:  b,
		gen:       workload.NewGeneratorOver(cfg.NumPeers, cfg.Gen, catalog, targets, rng.Stream("workload")),
		placement: placement,
	}

	// Dynamics run through the scenario engine. Under churn, departed
	// peers' own indexes die with them; survivors' indexes pointing at
	// them become stale and are filtered at selection time.
	if cfg.Scenario != nil {
		rt, err := scenario.Attach(cfg.Scenario, scenario.World{
			Engine:        eng,
			Graph:         graph,
			Model:         model,
			Locator:       locator,
			Catalog:       catalog,
			Gen:           s.gen,
			Net:           net,
			ChurnDefaults: cfg.Churn,
		}, rng.Stream("churn"), rng.Stream("scenario"))
		if err != nil {
			// The facade validates specs before building; reaching here is
			// a programming error.
			panic(fmt.Sprintf("core: attaching scenario: %v", err))
		}
		s.scenario = rt
	}
	if cfg.Obs != nil {
		// Attach instrumentation last so every engine and shard state
		// exists. Observability is shard-confined and never forces the
		// sequential epoch drain.
		s.attachObs(cfg.Obs)
	}
	if cfg.TracePolicy != nil {
		// The flight recorder sits behind the network's per-shard trace
		// cells, so — like the registry above — it never forces the
		// sequential drain.
		s.recorder = trace.NewFlightRecorder(*cfg.TracePolicy)
		net.SetTracer(s.recorder)
	}
	return s
}

// RunResult summarises one run.
type RunResult struct {
	// Protocol is the behaviour's name.
	Protocol string
	// Collector holds the run's streamed metric accumulators (and, in
	// RetainRecords mode only, the full per-query record stream).
	Collector *metrics.Collector
	// ControlMessages / ControlBits account Bloom gossip traffic
	// separately from search traffic, as the paper does.
	ControlMessages uint64
	ControlBits     uint64
	// CacheFilenames / CacheProviderEntries snapshot aggregate response
	// index occupancy at the end of the run (storage-overhead metric).
	CacheFilenames       int
	CacheProviderEntries int
	// Forwarding tallies how each routing tier was used across the run.
	Forwarding protocol.ForwardStats
	// Duration is the virtual time the run covered.
	Duration sim.Time
	// Events is the number of simulator events processed.
	Events uint64
	// Err is non-nil when a sharded run was aborted by a cross-shard
	// barrier violation (a derived lookahead wider than the workload's
	// minimum cross-shard delay — a harness bug, surfaced instead of
	// crashing the campaign). The result then covers only the epochs
	// delivered before the violation.
	Err error
	// Runtime is the run's observability snapshot; nil unless Config.Obs
	// was set.
	Runtime *RuntimeStats
	// Traces holds the flight recorder's retained query traces (slowest
	// first); nil unless Config.TracePolicy was set.
	Traces []*trace.QueryTrace
	// TracePhases holds the scenario phase-entry events the recorder saw,
	// for export alongside Traces.
	TracePhases []trace.Event
	// TraceProcessing is the per-hop processing delay the run used — the
	// attribution constant QueryTrace.Tree needs. Set iff Traces is.
	TraceProcessing sim.Time
}

// Run submits numQueries queries at the generator's Poisson arrival times
// and drives the engine until every query has been finalised. It can be
// called once per Simulation.
func (s *Simulation) Run(numQueries int) *RunResult {
	return s.RunMeasured(0, numQueries)
}

// RunMeasured runs warmup queries to bring caches, Bloom filters and
// natural replication to operating temperature, then measures the next
// measured queries. Warmup queries execute with full protocol effect but
// their records are discarded: only the measured phase appears in the
// returned result.
//
// Arrivals are streamed: each submission event generates and schedules its
// successor, so the engine queue holds O(in-flight) events instead of the
// whole workload — a million-query run no longer materialises a
// million-entry schedule up front. The generator's RNG is consumed in the
// same sequential order as the old bulk schedule, so results are unchanged.
// The chain is one reused typed event (submitEvent), so driving the whole
// workload allocates nothing per query.
func (s *Simulation) RunMeasured(warmup, measured int) *RunResult {
	total := warmup + measured
	if total <= 0 {
		panic("core: RunMeasured needs at least one query")
	}
	if s.scenario != nil {
		// Fix the phase timeline now that the measured count is known;
		// phase entries then ride the submission events below, so the
		// whole timeline is part of the deterministic event order.
		if err := s.scenario.BeginMeasured(measured); err != nil {
			panic(fmt.Sprintf("core: scenario timeline: %v", err))
		}
	}
	s.runDeadline = 0
	if sh, ok := s.loop.(*sim.Sharded); ok {
		// Route the warmup records by query id (the sharded replacement for
		// the mid-run collector swap), and drain epochs on one goroutine
		// per shard unless a scenario is attached (its dynamics mutate
		// shared substrates from shard-0 events) or a test forces the
		// sequential drain. Tracers no longer disable parallelism: emits go
		// to per-shard cells merged at the barrier, and both drain modes
		// hand the sink the identical stream.
		s.Network.SetWarmupQueries(warmup)
		sh.SetParallel(s.scenario == nil && !s.forceSeq)
	}
	s.scheduleSubmit(&submitEvent{s: s, warmup: warmup, total: total, ev: s.gen.Next()})
	// Step until the last arrival has been generated (deadline known), then
	// run the tail out in one deadline-bounded call. Stepping is batched
	// to spare the sharded loop its per-call epoch setup; scheduleSubmit
	// stops the engine the instant it fixes the deadline, so a batch can
	// never run on past it and deliver an already-queued event (a periodic
	// control rescheduled beyond the eventual deadline before the horizon
	// existed) that the deadline-bounded tail would have excluded.
	for s.runDeadline == 0 && s.loopErr() == nil {
		if s.loop.RunUntil(sim.Time(math.MaxInt64), 256) == 0 {
			if s.loopErr() != nil {
				break
			}
			panic("core: engine drained before the workload completed")
		}
	}
	if s.loopErr() == nil {
		s.loop.RunUntil(s.runDeadline, 0)
	}
	s.Network.FlushPending()

	res := &RunResult{
		Protocol:        s.Behavior.Name(),
		Collector:       s.Network.Collector,
		ControlMessages: s.Network.ControlMessages(),
		ControlBits:     s.Network.ControlBits(),
		Forwarding:      s.Network.Forwarding(),
		Duration:        s.loop.Now(),
		Events:          s.loop.Processed(),
		Err:             s.loopErr(),
	}
	for _, n := range s.Network.Nodes() {
		res.CacheFilenames += n.RI.Len()
		res.CacheProviderEntries += n.RI.TotalProviderEntries()
	}
	s.finishObs(res)
	if s.recorder != nil {
		res.Traces = s.recorder.Traces()
		res.TracePhases = s.recorder.Phases()
		res.TraceProcessing = s.Cfg.Protocol.ProcessingDelay
	}
	return res
}

// submitEvent drives the streamed arrival chain: one instance per run,
// re-posted for each successive query. It is undestined — submissions are
// the control plane's job — while everything it triggers (forward branches,
// finalisation) routes by destination peer.
type submitEvent struct {
	s      *Simulation
	i      int
	warmup int
	total  int
	ev     workload.QueryEvent
}

func (se *submitEvent) EventName() string { return "query-submit" }

func (se *submitEvent) Fire(*sim.Engine) {
	s := se.s
	if s.scenario != nil && se.i >= se.warmup {
		s.scenario.OnSubmit(se.i - se.warmup)
	}
	s.Network.Submit(overlay.PeerID(se.ev.Requester), se.ev.Q)
	if se.i+1 < se.total {
		se.i++
		se.ev = s.gen.Next()
		s.scheduleSubmit(se)
	}
}

// collectorResetEvent swaps in the measured-phase collector just before
// the first measured query (see scheduleSubmit).
type collectorResetEvent struct{ s *Simulation }

func (ev *collectorResetEvent) EventName() string { return "collector-reset" }

func (ev *collectorResetEvent) Fire(*sim.Engine) { ev.s.Network.ResetCollector() }

// scheduleSubmit posts the submission event for its current arrival, the
// collector swap ahead of the first measured query, and — at the last
// arrival — the run deadline and horizon.
func (s *Simulation) scheduleSubmit(se *submitEvent) {
	if se.i == se.warmup && se.warmup > 0 && !s.Network.Sharded() {
		// Swap the collector just before the first measured query;
		// in-flight warmup queries keep finalising into the old one.
		if at := se.ev.At - 1; at < s.Engine.Now() {
			s.Network.ResetCollector()
		} else if err := s.Engine.PostEventAt(at, &collectorResetEvent{s: s}); err != nil {
			panic(fmt.Sprintf("core: scheduling collector reset: %v", err))
		}
	}
	if err := s.Engine.PostEventAt(se.ev.At, se); err != nil {
		panic(fmt.Sprintf("core: scheduling query: %v", err))
	}
	if se.i == se.total-1 {
		// The last arrival fixes the run deadline; the horizon drops
		// anything scheduled beyond it (periodic controls, long tails).
		// Stop ends the current stepping batch right here, so everything
		// after this instant runs under the deadline bound (under the
		// sharded loop the stop lands at the epoch boundary, whose events
		// all carry the current — pre-deadline — timestamp).
		s.runDeadline = se.ev.At + s.Cfg.Protocol.FinalizeAfter + sim.Minute
		s.loop.SetHorizon(s.runDeadline)
		s.Engine.Stop()
	}
}

// loopErr returns the sharded loop's barrier-violation error, or nil on
// the plain engine (which has no failure mode).
func (s *Simulation) loopErr() error {
	if sh, ok := s.loop.(*sim.Sharded); ok {
		return sh.Err()
	}
	return nil
}

// String identifies the simulation.
func (s *Simulation) String() string {
	return fmt.Sprintf("sim{%s peers=%d seed=%d}", s.Behavior.Name(), s.Cfg.NumPeers, s.Cfg.Seed)
}

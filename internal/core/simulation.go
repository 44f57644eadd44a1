package core

import (
	"fmt"
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

	// recorder is the run's flight recorder when Cfg.TracePolicy is set; it
	// is the network's tracer, and RunMeasured harvests its retained traces
	// into the result.
	recorder *trace.FlightRecorder
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

	eng := sim.NewEngine()
	net := protocol.NewNetwork(eng, graph, model, locator, b, cfg.Protocol,
		rng.Stream("gid"), rng.Stream("protocol"))

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
	// them become stale and are filtered at selection time. A rejoining
	// peer rewires to the degree targets the overlay was built with.
	if cfg.Scenario != nil {
		rt, err := scenario.Attach(cfg.Scenario, scenario.World{
			Catalog: catalog,
			Gen:     s.gen,
			Net:     net,
			ChurnDefaults: overlay.ChurnConfig{
				AvgDegree:         cfg.AvgDegree,
				MaxDegree:         cfg.MaxDegree,
				MinOnlineFraction: overlay.DefaultChurn().MinOnlineFraction,
			},
		}, rng.Stream("churn"), rng.Stream("scenario"))
		if err != nil {
			// The facade validates specs before building; reaching here is
			// a programming error.
			panic(fmt.Sprintf("core: attaching scenario: %v", err))
		}
		s.scenario = rt
	}
	if cfg.Obs != nil {
		eng.CountKinds()
	}
	if cfg.TracePolicy != nil {
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
	// Err is always nil: a run on the one event queue has no failure mode.
	// Declared because benchmark/measure.go:91 and trace.go:209 read it;
	// ROADMAP item 1(b) removes it.
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
// are not recorded: only the measured phase appears in the returned result.
//
// Arrivals are streamed: each submission event generates and schedules its
// successor, so the engine queue holds O(in-flight) events instead of the
// whole workload. The chain is one reused typed event (submitEvent), so
// driving the whole workload allocates nothing per query. The last
// submission sets the engine's horizon, and the horizon ends the run: one
// Engine.Run drives it all.
func (s *Simulation) RunMeasured(warmup, measured int) *RunResult {
	total := warmup + measured
	if total <= 0 {
		panic("core: RunMeasured needs at least one query")
	}
	// The scenario phase grid is resolved here, once, for this run's measured
	// count: the collector seals a window per phase at the same marks the
	// timeline enters its phases at, and phase entries ride the submission
	// events below, so the whole timeline is part of the event order.
	colCfg := ResolveScenario(s.Cfg, measured).Protocol.Collector
	s.Network.Measure(metrics.NewCollectorWith(colCfg), warmup)
	if s.scenario != nil {
		s.scenario.BeginMeasured(colCfg.Phases)
	}
	s.scheduleSubmit(&submitEvent{s: s, warmup: warmup, total: total, ev: s.gen.Next()})
	s.Engine.Run(0)

	res := &RunResult{
		Protocol:        s.Behavior.Name(),
		Collector:       s.Network.Collector,
		ControlMessages: s.Network.ControlMessages(),
		ControlBits:     s.Network.ControlBits(),
		Forwarding:      s.Network.Forwarding(),
		Duration:        s.Engine.Now(),
		Events:          s.Engine.Processed(),
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
// re-posted for each successive query.
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
	s.Network.SubmitQuery(overlay.PeerID(se.ev.Requester), se.ev.Q)
	if se.i+1 < se.total {
		se.i++
		se.ev = s.gen.Next()
		s.scheduleSubmit(se)
	}
}

// scheduleSubmit posts the submission event for its current arrival. The
// last arrival fixes the run's end: every query has finalised by then, and
// the horizon keeps anything queued or scheduled past it (periodic controls,
// long tails) from being delivered.
func (s *Simulation) scheduleSubmit(se *submitEvent) {
	if err := s.Engine.PostEventAt(se.ev.At, se); err != nil {
		panic(fmt.Sprintf("core: scheduling query: %v", err))
	}
	if se.i == se.total-1 {
		s.Engine.SetHorizon(se.ev.At + s.Cfg.Protocol.FinalizeAfter + sim.Minute)
	}
}

// String identifies the simulation.
func (s *Simulation) String() string {
	return fmt.Sprintf("sim{%s peers=%d seed=%d}", s.Behavior.Name(), s.Cfg.NumPeers, s.Cfg.Seed)
}

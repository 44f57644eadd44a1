package core

import (
	"fmt"
	"sync"

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
	Locator  *netmodel.Locator
	Network  *protocol.Network
	Behavior protocol.Behavior

	gen      *workload.Generator
	scenario *scenario.Runtime

	// recorder is the run's flight recorder when Cfg.TracePolicy is set; it
	// is the network's tracer, and RunMeasured harvests its retained traces
	// into the result.
	recorder *trace.FlightRecorder
}

// World is one (config, trial)'s physical world, built once from the
// topology, landmarks, overlay, catalog and placement streams; Simulation
// cuts a run per behaviour from it, drawing the run's own gid, protocol,
// workload, churn and scenario streams. A stream is a pure function of
// (seed, name), so a cut run is the run NewSimulation builds.
//
// The points, locator, placement and targets are shared read-only. What a
// run mutates is its own: every run gets a fresh Model over the points (the
// degradation factors); the last run gets the graph (churn) and the
// catalogue (injected files) themselves and earlier runs get copies, cut
// under the world's mutex before the originals leave it. So a single run
// copies nothing, and the last cut drops every reference the world holds.
type World struct {
	mu   sync.Mutex
	runs int // still to be cut
	w    world
}

type world struct {
	cfg       Config
	pts       []netmodel.Point
	locator   *netmodel.Locator
	graph     *overlay.Graph
	catalog   *workload.Catalog
	placement *workload.Placement
	targets   []workload.FileID
}

// NewWorld builds cfg's physical world for runs runs.
func NewWorld(cfg Config, runs int) *World {
	rng := sim.NewRNG(cfg.Seed)
	pts := netmodel.Place(cfg.NumPeers, cfg.Placement, rng.Stream("topology"))
	lm := netmodel.NewLandmarks(cfg.Landmarks, cfg.Placement.Side, rng.Stream("landmarks"))
	locator := netmodel.NewLocator(netmodel.NewModel(pts, cfg.Placement.Side, cfg.Latency, cfg.Seed), lm)

	graph := overlay.BuildRandom(cfg.NumPeers,
		overlay.BuildConfig{AvgDegree: cfg.AvgDegree, MaxDegree: cfg.MaxDegree},
		rng.Stream("overlay"))

	catalog := workload.NewCatalog(cfg.Catalog, rng.Stream("catalog"))
	placement := workload.NewPlacement(cfg.NumPeers, cfg.FilesPerPeer, catalog, rng.Stream("placement"))

	// Queries target PF, the set of popularly shared files (§3.3): only
	// files some peer actually provides are queryable. Catalogue ids are
	// popularity ranks, so ascending id order keeps the Zipf head on
	// popular files.
	provided := make([]bool, catalog.Size())
	for p := range cfg.NumPeers {
		for _, fid := range placement.Files(p) {
			provided[fid] = true
		}
	}
	var targets []workload.FileID
	for fid, ok := range provided {
		if ok {
			targets = append(targets, workload.FileID(fid))
		}
	}
	return &World{runs: runs, w: world{cfg, pts, locator, graph, catalog, placement, targets}}
}

// NewSimulation assembles a simulation for the behaviour over a world of
// its own, copying nothing. All randomness derives from cfg.Seed via named
// streams, so two simulations with the same config but different behaviours
// see the same physical world, overlay, file placement and query sequence.
func NewSimulation(cfg Config, b protocol.Behavior) *Simulation {
	return NewWorld(cfg, 1).Simulation(b)
}

// Simulation cuts the world's next run, for behaviour b. It is safe for
// concurrent use and panics once every run has been cut.
func (w *World) Simulation(b protocol.Behavior) *Simulation {
	w.mu.Lock()
	ws := w.w
	switch w.runs--; {
	case w.runs > 0:
		ws.graph, ws.catalog = ws.graph.Clone(), ws.catalog.Clone()
	case w.runs == 0:
		w.w = world{}
	default:
		panic("core: every run of this world has been cut")
	}
	w.mu.Unlock()

	cfg := ws.cfg
	rng := sim.NewRNG(cfg.Seed)
	model := netmodel.NewModel(ws.pts, cfg.Placement.Side, cfg.Latency, cfg.Seed)
	eng := sim.NewEngine()
	net := protocol.NewNetwork(eng, ws.graph, model, ws.locator, b, cfg.Protocol,
		rng.Stream("gid"), rng.Stream("protocol"))
	for p := range cfg.NumPeers {
		for _, fid := range ws.placement.Files(p) {
			net.Node(overlay.PeerID(p)).AddFile(ws.catalog.File(fid))
		}
	}

	s := &Simulation{
		Cfg:      cfg,
		Engine:   eng,
		Locator:  ws.locator,
		Network:  net,
		Behavior: b,
		gen:      workload.NewGeneratorOver(cfg.NumPeers, cfg.Gen, ws.catalog, ws.targets, rng.Stream("workload")),
	}

	// Dynamics run through the scenario engine. Under churn, departed
	// peers' own indexes die with them; survivors' indexes pointing at
	// them become stale and are filtered at selection time. A rejoining
	// peer rewires to the degree targets the overlay was built with.
	if cfg.Scenario != nil {
		rt, err := scenario.Attach(cfg.Scenario, scenario.World{
			Catalog: ws.catalog,
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

package core

import (
	"runtime"
	"testing"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
)

// smallConfig returns a fast config for tests: 200 peers, accelerated
// query rate so runs finish in milliseconds of wall time.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = 200
	cfg.Gen.RatePerPeer = 0.01
	return cfg
}

func TestNewSimulationAssembly(t *testing.T) {
	s := NewSimulation(smallConfig(1), protocol.Locaware{})
	if g := s.Network.Graph; g.N() != 200 || g.Edges() == 0 {
		t.Fatalf("graph: %v", g)
	}
	if len(s.Network.Nodes()) != 200 {
		t.Fatalf("nodes = %d", len(s.Network.Nodes()))
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSameSeedSameWorldAcrossBehaviors(t *testing.T) {
	a := NewSimulation(smallConfig(7), protocol.Flooding{})
	b := NewSimulation(smallConfig(7), protocol.Locaware{})
	// Identical overlay.
	if a.Network.Graph.Edges() != b.Network.Graph.Edges() {
		t.Fatal("overlays differ across behaviours")
	}
	for p := 0; p < 200; p++ {
		na, nb := a.Network.Graph.Neighbors(overlay.PeerID(p)), b.Network.Graph.Neighbors(overlay.PeerID(p))
		if len(na) != len(nb) {
			t.Fatalf("peer %d neighbourhoods differ", p)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("peer %d neighbourhoods differ", p)
			}
		}
	}
	// Identical locIds and placement.
	for p := 0; p < 200; p++ {
		if a.Locator.LocID(p) != b.Locator.LocID(p) {
			t.Fatalf("locIds differ at %d", p)
		}
	}
}

func TestRunProducesRecords(t *testing.T) {
	s := NewSimulation(smallConfig(2), protocol.Flooding{})
	res := s.RunMeasured(0, 50)
	if res.Collector.Submitted() != 50 {
		t.Fatalf("submitted = %d", res.Collector.Submitted())
	}
	if res.Protocol != "Flooding" {
		t.Fatalf("protocol = %q", res.Protocol)
	}
	if res.Events == 0 || res.Duration == 0 {
		t.Fatalf("run accounting: %+v", res)
	}
	if res.Collector.SuccessRate() == 0 {
		t.Fatal("flooding over 200 peers should succeed sometimes")
	}
	if res.Collector.AvgMessagesPerQuery() < 10 {
		t.Fatalf("flooding traffic implausibly low: %v", res.Collector.AvgMessagesPerQuery())
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func(shards int) *RunResult {
		cfg := smallConfig(3)
		cfg.Shards = shards
		cfg.Obs = obs.NewRegistry()
		return NewSimulation(cfg, protocol.Locaware{}).RunMeasured(0, 80)
	}
	r1, r2 := run(0), run(0)
	if r1.Collector.SuccessRate() != r2.Collector.SuccessRate() {
		t.Fatal("same-seed runs differ in success rate")
	}
	if r1.Collector.TotalMessages() != r2.Collector.TotalMessages() {
		t.Fatal("same-seed runs differ in traffic")
	}
	if r1.Events != r2.Events {
		t.Fatal("same-seed runs differ in event count")
	}
	// Config.Shards is vestigial (ROADMAP item 1(b)): `benchmark --trace 1`
	// still sets it to 2 and must get the plain run back.
	r3 := run(2)
	if r3.Err != nil || r3.Runtime.Epochs != 0 || r3.Runtime.CrossShardEvents != 0 {
		t.Fatalf("Shards=2: err %v, %d epochs, %d cross-shard events; want none", r3.Err, r3.Runtime.Epochs, r3.Runtime.CrossShardEvents)
	}
	if r3.Events != r1.Events || r3.Runtime.EventsScheduled != r1.Runtime.EventsScheduled ||
		r3.Collector.SuccessRate() != r1.Collector.SuccessRate() ||
		r3.Collector.TotalMessages() != r1.Collector.TotalMessages() ||
		r3.Collector.AvgDownloadRTT() != r1.Collector.AvgDownloadRTT() {
		t.Fatal("Shards=2 changed the run")
	}
}

// TestRunNeverOutlivesDeadline locks how a run ends: at the last
// submission + FinalizeAfter + 1 min. It holds even when a periodic
// control's period exceeds that slack, so a reschedule beyond the end is
// queued before the last submission sets the horizon: no event past the end
// is delivered, and the clock rests on it.
func TestRunNeverOutlivesDeadline(t *testing.T) {
	cfg := benchConfig(200, 3)
	// Gossip period far beyond FinalizeAfter + 1 minute: its
	// self-reschedule can outlive the run deadline.
	cfg.Protocol.BloomGossipPeriod = cfg.Protocol.FinalizeAfter + 5*sim.Minute
	s := NewSimulation(cfg, protocol.Locaware{})
	var lastSubmit, lastDelivery sim.Time
	s.Engine.SetObserver(func(at sim.Time, ev sim.Event) {
		lastDelivery = at
		if n, ok := ev.(sim.Named); ok && n.EventName() == "query-submit" {
			lastSubmit = at
		}
	})
	res := s.RunMeasured(0, 150)
	end := lastSubmit + cfg.Protocol.FinalizeAfter + sim.Minute
	if lastDelivery > end || res.Duration != end {
		t.Fatalf("last delivery %v, run clock %v; want both at most, and the clock at, the end %v", lastDelivery, res.Duration, end)
	}
}

// TestRunSealsEveryQuery: a run ends at its horizon, which lies past every
// query's finalize event, so every submitted query has been finalised by
// then — for every protocol, static and under churn and outage. Nothing
// flushes after the engine returns; this is the invariant that lets it not.
func TestRunSealsEveryQuery(t *testing.T) {
	for _, scen := range []string{"", "steady-churn", "regional-outage"} {
		for _, b := range append(protocol.Baselines(), protocol.LocawareLR{}) {
			cfg := smallConfig(9)
			if scen != "" {
				cfg.Scenario, _ = scenario.Lookup(scen)
			}
			s := NewSimulation(cfg, b)
			s.RunMeasured(20, 60)
			if c := s.Network.Counts(); c.Submitted != 80 || c.Finalized != c.Submitted {
				t.Fatalf("%s %q: %d submitted, %d finalised; want all 80 sealed", b.Name(), scen, c.Submitted, c.Finalized)
			}
		}
	}
}

// TestRunResolvesThePhaseGrid: the scenario phase grid follows the run's
// measured count, whatever the config says. A churn-waves config never
// resolved, and one resolved for 100 queries, both run 400 measured queries
// with phase windows ending exactly at the spec's marks for 400.
func TestRunResolvesThePhaseGrid(t *testing.T) {
	spec, _ := scenario.Lookup("churn-waves")
	want, err := spec.Marks(400)
	if err != nil {
		t.Fatal(err)
	}
	unresolved := smallConfig(14)
	unresolved.Scenario = spec
	for name, cfg := range map[string]Config{
		"unresolved":       unresolved,
		"resolved for 100": ResolveScenario(unresolved, 100),
	} {
		res := NewSimulation(cfg, protocol.Dicas{}).RunMeasured(20, 400)
		ws := res.Collector.PhaseWindows()
		if len(ws) != len(want) {
			t.Fatalf("%s: %d phase windows, want %d", name, len(ws), len(want))
		}
		for i, w := range ws {
			if w.Name != want[i].Name || w.End != want[i].End {
				t.Fatalf("%s: window %d is %s ending at %d, want %s ending at %d", name, i, w.Name, w.End, want[i].Name, want[i].End)
			}
		}
	}
}

func TestRunMeasuredDiscardsWarmup(t *testing.T) {
	s := NewSimulation(smallConfig(4), protocol.Locaware{})
	res := s.RunMeasured(30, 40)
	if res.Collector.Submitted() != 40 {
		t.Fatalf("measured records = %d, want 40", res.Collector.Submitted())
	}
}

func TestRunMeasuredPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSimulation(smallConfig(5), protocol.Flooding{}).RunMeasured(0, 0)
}

func TestCachingProtocolPopulatesCaches(t *testing.T) {
	s := NewSimulation(smallConfig(6), protocol.Locaware{})
	res := s.RunMeasured(0, 300)
	if res.CacheFilenames == 0 {
		t.Fatal("no filenames cached after 300 queries")
	}
	if res.CacheProviderEntries < res.CacheFilenames {
		t.Fatal("provider entries below filename count")
	}
	if res.ControlMessages == 0 {
		t.Fatal("locaware run produced no Bloom gossip")
	}
}

func TestFloodingCachesNothing(t *testing.T) {
	s := NewSimulation(smallConfig(6), protocol.Flooding{})
	res := s.RunMeasured(0, 100)
	if res.CacheFilenames != 0 || res.ControlMessages != 0 {
		t.Fatalf("flooding should not cache or gossip: %+v", res)
	}
}

func TestRunComparisonPaired(t *testing.T) {
	cfg := smallConfig(8)
	cmp := RunTrialComparison(cfg, Baselines(), TrialOptions{}, 50, 100, nil)
	if len(cmp.Cells) != 4 || len(cmp.Order) != 4 {
		t.Fatalf("results: %v", cmp.Order)
	}
	for _, name := range []string{"Flooding", "Dicas", "Dicas-Keys", "Locaware"} {
		cell, ok := cmp.Cells[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if len(cell.Runs) != 1 || cell.Runs[0].Collector.Submitted() != 100 {
			t.Fatalf("%s: %d runs, first submitted %d", name, len(cell.Runs), cell.Runs[0].Collector.Submitted())
		}
	}
	// Flooding must dominate traffic.
	fl := cmp.Cells["Flooding"].Summary.MessagesPerQuery.Mean
	la := cmp.Cells["Locaware"].Summary.MessagesPerQuery.Mean
	if la >= fl {
		t.Fatalf("locaware traffic %v >= flooding %v", la, fl)
	}
}

func TestFigureSeriesExtraction(t *testing.T) {
	cfg := smallConfig(9)
	cmp := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}, TrialOptions{}, 20, 60, []int{20, 40, 60})
	for _, fig := range []string{Fig2DownloadDistance, Fig3SearchTraffic, Fig4SuccessRate} {
		series := cmp.FigureSeries(fig)
		if len(series) != 2 {
			t.Fatalf("%s: %d series", fig, len(series))
		}
		for _, s := range series {
			if len(s.Xs) != 3 {
				t.Fatalf("%s/%s: %d points, want 3", fig, s.Name, len(s.Xs))
			}
			if s.Xs[0] != 20 || s.Xs[2] != 60 {
				t.Fatalf("%s/%s xs = %v", fig, s.Name, s.Xs)
			}
		}
	}
	if got := cmp.FigureSeries("not-a-figure"); len(got[0].Xs) != 0 {
		t.Fatal("unknown figure should yield empty series")
	}
}

func TestNormalizeCheckpoints(t *testing.T) {
	got := normalizeCheckpoints([]int{50, 10, 10, -3, 200}, 100)
	if len(got) != 2 || got[0] != 10 || got[1] != 50 {
		t.Fatalf("normalized = %v (out-of-range and duplicate checkpoints must drop)", got)
	}
	auto := normalizeCheckpoints(nil, 100)
	if len(auto) != 10 || auto[0] != 10 || auto[9] != 100 {
		t.Fatalf("auto checkpoints = %v", auto)
	}
	tiny := normalizeCheckpoints(nil, 3)
	if len(tiny) == 0 {
		t.Fatal("tiny run has no checkpoints")
	}
}

func TestHeadlines(t *testing.T) {
	cfg := smallConfig(10)
	cmp := RunTrialComparison(cfg, Baselines(), TrialOptions{}, 150, 150, nil)
	h := cmp.Headlines()
	if h.TrafficReductionVsFlooding > -0.5 {
		t.Fatalf("traffic reduction %v, expected strongly negative", h.TrafficReductionVsFlooding)
	}
	// Partial comparisons do not panic.
	partial := RunTrialComparison(cfg, []protocol.Behavior{protocol.Locaware{}}, TrialOptions{}, 0, 30, nil)
	_ = partial.Headlines()
	empty := &TrialComparison{Cells: map[string]*TrialCell{}}
	_ = empty.Headlines()
}

func TestChurnRun(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Scenario, _ = scenario.Lookup("steady-churn")
	cfg.Scenario.ChurnIntervalS = 20
	s := NewSimulation(cfg, protocol.Locaware{})
	res := s.RunMeasured(0, 150)
	if res.Collector.Submitted() != 150 {
		t.Fatalf("submitted = %d", res.Collector.Submitted())
	}
	// Churn should leave some peers offline or have cycled them.
	if s.Network.Graph.OnlineCount() == 200 && s.Network.Graph.Edges() == 0 {
		t.Fatal("churn had no effect")
	}
}

// TestChurnRewiresAtTheWorldsDegree: a rejoining peer links to the degree
// targets the overlay was built with, not to overlay.DefaultChurn's 3 — so
// a world built at average degree 6 is still near 6 after hundreds of peers
// have cycled, where the former Config.Churn copy thinned it towards 3.
func TestChurnRewiresAtTheWorldsDegree(t *testing.T) {
	cfg := smallConfig(11)
	cfg.AvgDegree = 6
	cfg.Scenario, _ = scenario.Lookup("steady-churn")
	cfg.Scenario.ChurnIntervalS = 5
	s := NewSimulation(cfg, protocol.Dicas{})
	if d := s.Network.Graph.AvgDegree(); d < 5.5 {
		t.Fatalf("fixture: overlay built at mean degree %.2f, want ≈ 6", d)
	}
	s.RunMeasured(0, 400)
	if off := s.Network.Graph.N() - s.Network.Graph.OnlineCount(); off == 0 {
		t.Fatal("fixture: churn left every peer online")
	}
	if d := s.Network.Graph.AvgDegree(); d < 4.5 {
		t.Fatalf("mean online degree %.2f after churn: nearer the default 3 than the world's 6", d)
	}
}

func TestLocawareBeatsDicasWarm(t *testing.T) {
	// Integration check of the paper's Fig. 4 ordering at small scale:
	// with a warmed system, Locaware's success rate must be at least
	// Dicas's (the +23% claim is validated at paper scale in the bench
	// harness; here we assert non-inferiority to keep the test robust).
	cfg := smallConfig(12)
	cmp := RunTrialComparison(cfg, []protocol.Behavior{protocol.Dicas{}, protocol.Locaware{}}, TrialOptions{}, 400, 400, nil)
	di := cmp.Cells["Dicas"].Summary.SuccessRate.Mean
	la := cmp.Cells["Locaware"].Summary.SuccessRate.Mean
	if la < di*0.95 {
		t.Fatalf("locaware %0.3f markedly below dicas %0.3f", la, di)
	}
}

func TestFloodingSuccessDominates(t *testing.T) {
	cfg := smallConfig(13)
	cmp := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}, TrialOptions{}, 100, 200, nil)
	fl := cmp.Cells["Flooding"].Summary.SuccessRate.Mean
	la := cmp.Cells["Locaware"].Summary.SuccessRate.Mean
	if fl <= la {
		t.Fatalf("flooding %0.3f should beat locaware %0.3f on success (Fig. 4)", fl, la)
	}
}

// TestHotPathAllocBudget holds the per-message path's allocation count in
// the tree: MemStats.Mallocs across RunMeasured on one fixed seed, measured
// the way benchmark/measure.go measures allocs_per_query on its flood-2k and
// locaware-2k worlds (shortened). The counts repeat for a seed to within a
// few runtime allocations — 6.0 and 5.1 per query when the budgets were
// set — and sit far below what per-node seen maps and a path allocated per
// message cost (452 and 11.7 on the same worlds), or what spelling
// keywords as strings cost (9.8 and 8.8).
func TestHotPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the race detector's own allocations move the count; the race pass runs -short")
	}
	for _, c := range []struct {
		b                protocol.Behavior
		warmup, measured int
		budget           float64
	}{
		{protocol.Flooding{}, 0, 25, 8},
		{protocol.Locaware{}, 500, 2000, 6},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.NumPeers = 2000
		s := NewSimulation(cfg, c.b)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res := s.RunMeasured(c.warmup, c.measured)
		runtime.ReadMemStats(&m1)
		if got := res.Collector.Submitted(); got != c.measured {
			t.Fatalf("%s: %d of %d measured queries finalised", c.b.Name(), got, c.measured)
		}
		perQuery := float64(m1.Mallocs-m0.Mallocs) / float64(c.warmup+c.measured)
		t.Logf("%s: %.2f allocs/query (budget %.0f)", c.b.Name(), perQuery, c.budget)
		if perQuery > c.budget {
			t.Fatalf("%s: %.2f allocs/query over %d queries, budget %.0f", c.b.Name(), perQuery, c.warmup+c.measured, c.budget)
		}
	}
}

// TestWorldBuildAllocBudget holds the allocation count of building a world
// in the tree: MemStats.Mallocs across NewSimulation of a 200-peer Locaware
// world with the paper's catalogue. It read 3566 when the budget was set
// (measured + 10 %), against 39 980 when the catalogue spelt its keywords
// as strings and the placement kept a map per peer.
func TestWorldBuildAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the race detector's own allocations move the count; the race pass runs -short")
	}
	const budget = 3922
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumPeers = 200
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	NewSimulation(cfg, protocol.Locaware{})
	runtime.ReadMemStats(&m1)
	got := m1.Mallocs - m0.Mallocs
	t.Logf("NewSimulation: %d allocs (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("NewSimulation of a 200-peer Locaware world: %d allocs, budget %d", got, budget)
	}
}

package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
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
	if n := s.Network.Node(199); n.ID != 199 {
		t.Fatalf("node 199 has id %d", n.ID)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestValidateRefusesWhatBuildersWouldChange: a value a builder could not
// honour as given, every Params row at 0 and -1, and a run no collector or
// scenario could measure, is refused by ValidateRun, naming the parameter,
// the value and the bound, and
// each bound itself is accepted: a budget of exactly the n-1 links of the
// arrival tree, a degree of exactly MaxDegree, the 8-bit filter, a peer
// sharing the whole catalogue and a checkpoint at the last measured query.
func TestValidateRefusesWhatBuildersWouldChange(t *testing.T) {
	var warmup, measured int
	churnWaves, _ := scenario.Lookup("churn-waves")
	type row struct {
		name string
		set  func(*Config)
		want []string // nil: accepted
	}
	rows := []row{
		{"degree 0.5", func(c *Config) { c.NumPeers, c.AvgDegree = 200, 0.5 }, []string{"avg-degree 0.5", "budgets 50 links", "199"}},
		{"degree 1.5 on 8 peers", func(c *Config) { c.NumPeers, c.AvgDegree = 8, 1.5 }, []string{"avg-degree 1.5", "budgets 6 links", "7"}},
		{"n-1 links exactly", func(c *Config) { c.NumPeers, c.AvgDegree = 8, 1.75 }, nil},
		{"degree 2", func(c *Config) { c.NumPeers, c.AvgDegree = 200, 2 }, nil},
		{"degree 3", func(c *Config) { c.NumPeers, c.AvgDegree = 200, 3 }, nil},
		{"degree MaxDegree", func(c *Config) { c.AvgDegree = 12 }, nil},
		{"degree 20", func(c *Config) { c.AvgDegree = 20 }, []string{"avg-degree 20", "MaxDegree 12"}},
		{"degree above MaxDegree", func(c *Config) { c.AvgDegree = 12.5 }, []string{"avg-degree 12.5", "MaxDegree 12"}},
		{"uncapped degree", func(c *Config) { c.AvgDegree, c.MaxDegree = 20, 0 }, nil},
		{"bloom 8 bits", func(c *Config) { c.Protocol.BloomBits = 8 }, nil},
		{"bloom 4 bits", func(c *Config) { c.Protocol.BloomBits = 4 }, []string{"bloom-bits 4", "8"}},
		{"whole catalogue per peer", func(c *Config) { c.FilesPerPeer = c.Catalog.NumFiles }, nil},
		{"files per peer above files", func(c *Config) { c.FilesPerPeer = 3001 }, []string{"files-per-peer 3001", "files 3000"}},
		{"measured 0", func(*Config) { measured = 0 }, []string{"measured queries 0"}},
		{"warmup -1", func(*Config) { warmup = -1 }, []string{"warmup queries -1"}},
		{"keep-nothing recorder", func(c *Config) { c.TracePolicy = &trace.Policy{MaxEventsPerQuery: 8} }, []string{"TracePolicy", "SlowestN", "KeepFailed", "MinHops"}},
		{"recorder keeping failures", func(c *Config) { c.TracePolicy = &trace.Policy{KeepFailed: true} }, nil},
		{"recorder SlowestN -1", func(c *Config) { c.TracePolicy = &trace.Policy{SlowestN: -1, KeepFailed: true} }, []string{"TracePolicy.SlowestN -1 must be non-negative"}},
		{"recorder MinHops -2", func(c *Config) { c.TracePolicy = &trace.Policy{MinHops: -2, KeepFailed: true} }, []string{"TracePolicy.MinHops -2 must be non-negative"}},
		{"recorder MaxEventsPerQuery -5", func(c *Config) { c.TracePolicy = &trace.Policy{SlowestN: 3, MaxEventsPerQuery: -5} }, []string{"TracePolicy.MaxEventsPerQuery -5 must be non-negative"}},
		{"phases above measured", func(c *Config) { c.Scenario, measured = churnWaves, 3 }, []string{"4 phases", "got 3"}},
		{"checkpoint grid", func(c *Config) { c.Protocol.Collector.Checkpoints = []int{20, 20, 500, -3} }, []string{"checkpoint 20 after 20", "[1, 100]"}},
		{"checkpoint past measured", func(c *Config) { c.Protocol.Collector.Checkpoints = []int{50, 500} }, []string{"checkpoint 500", "[1, 100]"}},
		{"checkpoint -3", func(c *Config) { c.Protocol.Collector.Checkpoints = []int{-3} }, []string{"checkpoint -3", "[1, 100]"}},
		{"checkpoint at measured", func(c *Config) { c.Protocol.Collector.Checkpoints = []int{1, 100} }, nil},
	}
	// Every table parameter is refused at 0 and below, by its table name.
	for _, p := range Params {
		for _, v := range []float64{0, -1} {
			rows = append(rows, row{fmt.Sprintf("%s %g", p.Name, v), func(c *Config) { p.Set(c, v) },
				[]string{fmt.Sprintf("%s: value %g must be positive", p.Name, v)}})
		}
	}
	for _, tc := range rows {
		cfg := DefaultConfig()
		warmup, measured = 0, 100
		tc.set(&cfg)
		err := cfg.ValidateRun(warmup, measured)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error does not name %q: %v", tc.name, w, err)
			}
		}
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
		if !slices.Equal(na, nb) {
			t.Fatalf("peer %d neighbourhoods differ", p)
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
		for _, b := range protocol.Baselines() {
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
			if w.Phase != want[i].Name || w.End != want[i].End {
				t.Fatalf("%s: window %d is %s ending at %d, want %s ending at %d", name, i, w.Phase, w.End, want[i].Name, want[i].End)
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
	cmp := RunTrialComparison(cfg, Baselines(), 1, 50, 100, 0)
	if len(cmp.Cells) != 4 {
		t.Fatalf("results: %d cells", len(cmp.Cells))
	}
	for i, cell := range cmp.Cells {
		if name := Baselines()[i].Name(); cell.Protocol != name {
			t.Fatalf("cell %d is %s, want %s", i, cell.Protocol, name)
		}
		if len(cell.Runs) != 1 || cell.Runs[0].Collector.Submitted() != 100 {
			t.Fatalf("%s: %d runs, first submitted %d", cell.Protocol, len(cell.Runs), cell.Runs[0].Collector.Submitted())
		}
	}
	// Flooding must dominate traffic.
	fl := cmp.cell("Flooding").Summary.AvgMessagesPerQuery.Mean
	la := cmp.cell("Locaware").Summary.AvgMessagesPerQuery.Mean
	if la >= fl {
		t.Fatalf("locaware traffic %v >= flooding %v", la, fl)
	}
}

// TestTenSteps: nil checkpoints mean ten equal steps, and every query of a
// run shorter than ten.
func TestTenSteps(t *testing.T) {
	auto := tenSteps(100)
	if len(auto) != 10 || auto[0] != 10 || auto[9] != 100 {
		t.Fatalf("auto checkpoints = %v", auto)
	}
	if tiny := tenSteps(3); len(tiny) != 3 || tiny[2] != 3 {
		t.Fatalf("tiny run checkpoints = %v", tiny)
	}
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
	cmp := RunTrialComparison(cfg, []protocol.Behavior{protocol.Dicas{}, protocol.Locaware{}}, 1, 400, 400, 0)
	di := cmp.cell("Dicas").Summary.SuccessRate.Mean
	la := cmp.cell("Locaware").Summary.SuccessRate.Mean
	if la < di*0.95 {
		t.Fatalf("locaware %0.3f markedly below dicas %0.3f", la, di)
	}
}

func TestFloodingSuccessDominates(t *testing.T) {
	cfg := smallConfig(13)
	cmp := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}, 1, 100, 200, 0)
	fl := cmp.cell("Flooding").Summary.SuccessRate.Mean
	la := cmp.cell("Locaware").Summary.SuccessRate.Mean
	if fl <= la {
		t.Fatalf("flooding %0.3f should beat locaware %0.3f on success (Fig. 4)", fl, la)
	}
}

// skipAllocBudget skips an allocation budget under -short and under the
// race detector, whose own allocations move the count.
func skipAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the race detector's own allocations move the count; the race pass runs -short")
	}
}

// TestHotPathAllocBudget holds the per-message path's allocation count and
// bytes in the tree: MemStats.Mallocs and TotalAlloc across RunMeasured on
// one fixed seed, measured the way benchmark/measure.go measures
// allocs_per_query and bytes_per_query on its flood-2k and locaware-2k
// worlds (shortened) and on locaware-20k's shape. The counts repeat for a
// seed to within a few runtime allocations (Flooding moved 5.32–5.64 while
// the RTT model kept its generators in a sync.Pool, which empties at GC),
// and sit far below what a path allocated per message (452 and 11.7 allocs
// per query at 2 000 peers), keywords spelt as strings (9.8 and 8.8) or a
// pairwise RTT memo (24 735 and 516 B) cost. Each budget is its row's
// measured value + 10 %: Flooding 3.60 allocs per query (5.36 with a
// make per fresh visited set and response window, when its 17 580 B budget
// was set), Locaware 0.142 and 320 B, Dicas-Keys 0.170 and 87, Locaware at
// 20 000 peers 0.087 and 459 (0.179 and 608 when every query held an N-bit
// seen bitmap), and campaign-grid's shape, Flooding at 400 peers under
// steady-churn at the sweeps' rate, 0.493 and 1 037 (1.337 and 1 042 while
// a run allocated per fresh query and departure, not per block). The last
// row is Locaware with the benchmark's flight recorder attached (KeepFailed,
// SlowestN 8): 0.390 and 1 833, where a recorder that spelt every event's
// detail and kept a map of in-flight queries cost 2.09 and 1 260.
func TestHotPathAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	for _, c := range []struct {
		b                  protocol.Behavior
		peers              int
		warmup, measured   int
		budget, byteBudget float64
		churn, traced      bool
	}{
		{protocol.Flooding{}, 2000, 0, 25, 3.96, 17580, false, false},
		{protocol.Locaware{}, 2000, 500, 2000, 0.156, 352, false, false},
		{protocol.DicasKeys{}, 2000, 500, 2000, 0.187, 96, false, false},
		{protocol.Locaware{}, 20000, 1000, 4000, 0.096, 505, false, false},
		{protocol.Flooding{}, 400, 60, 240, 0.543, 1141, true, false},
		{protocol.Locaware{}, 2000, 500, 2000, 0.429, 2016, false, true},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.NumPeers = c.peers
		if c.traced {
			cfg.TracePolicy = &trace.Policy{KeepFailed: true, SlowestN: 8}
		}
		if c.churn {
			cfg.Scenario, _ = scenario.Lookup("steady-churn")
			cfg.Gen.RatePerPeer = 0.01
		}
		s := NewSimulation(cfg, c.b)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res := s.RunMeasured(c.warmup, c.measured)
		runtime.ReadMemStats(&m1)
		if got := res.Collector.Submitted(); got != c.measured {
			t.Fatalf("%s: %d of %d measured queries finalised", c.b.Name(), got, c.measured)
		}
		n := float64(c.warmup + c.measured)
		perQuery, bytes := float64(m1.Mallocs-m0.Mallocs)/n, float64(m1.TotalAlloc-m0.TotalAlloc)/n
		t.Logf("%s at %d peers: %.3f allocs/query (budget %g), %.0f B/query (budget %.0f)", c.b.Name(), c.peers, perQuery, c.budget, bytes, c.byteBudget)
		if perQuery > c.budget {
			t.Fatalf("%s: %.2f allocs/query over %d queries, budget %g", c.b.Name(), perQuery, c.warmup+c.measured, c.budget)
		}
		if bytes > c.byteBudget {
			t.Fatalf("%s: %.0f B/query over %d queries, budget %.0f", c.b.Name(), bytes, c.warmup+c.measured, c.byteBudget)
		}
	}
}

// TestWorldBuildAllocBudget holds the allocations and bytes per peer of
// building a world in the tree: MemStats.Mallocs and TotalAlloc across
// NewSimulation of a Locaware world with the paper's catalogue. Per-peer
// state is built table by table — one allocation per table for the
// filters, the response indexes, the storage and the adjacency, and none to
// locate a peer — so the 200-peer world's 39 980 allocations (keywords
// spelt as strings, a map per peer's placement) fell to 99, and the 20 000-
// peer world's 14.5 per peer to 0.181. Grown adjacency rows are carved
// from a block and the target list is made at its length: 0.295
// allocations and 1 196 B per peer at 200 peers, 0.00575 and 412 B at
// 20 000 (each adjacency window holds its links' delay slots beside the
// ids, 16 B a peer at degree 3). The budgets are the measured values
// + 10 %, but for the 20 000-peer bytes, which stay at 433.
func TestWorldBuildAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	for _, c := range []struct {
		peers                    int
		allocBudget, bytesBudget float64 // per peer
	}{
		{200, 0.325, 1316},
		{20000, 0.0064, 433},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.NumPeers = c.peers
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		NewSimulation(cfg, protocol.Locaware{})
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(c.peers)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(c.peers)
		t.Logf("%d peers: %.3f allocs/peer (budget %g), %.0f B/peer (budget %g)", c.peers, allocs, c.allocBudget, bytes, c.bytesBudget)
		if allocs > c.allocBudget || bytes > c.bytesBudget {
			t.Fatalf("NewSimulation of a %d-peer Locaware world: %.3f allocs and %.0f B per peer, budgets %g and %g",
				c.peers, allocs, bytes, c.allocBudget, c.bytesBudget)
		}
	}
}

// TestRunGridSharesTheWorld guards the one world per (config, trial): a
// RunGrid of the four baselines × 1 trial at 1 000 peers, with no warm-up
// and one measured query, allocates what one world and four networks cost,
// not four worlds. It read 0.784 × the bytes of the four NewSimulation
// builds, and 1.048 when RunGrid called NewSimulation per job; each run's
// own nodes, response-index tables and graph copy keep the ratio above
// 0.75 at this size. The budget is the measured ratio + 10 %.
func TestRunGridSharesTheWorld(t *testing.T) {
	skipAllocBudget(t)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumPeers = 1000
	bytes := func(f func()) float64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	builds := bytes(func() {
		for _, b := range protocol.Baselines() {
			NewSimulation(cfg, b)
		}
	})
	grid := bytes(func() {
		RunGrid([]Config{cfg}, protocol.Baselines(), 1, 0, 1, 1, func(int, int, []*RunResult) {})
	})
	t.Logf("RunGrid %.0f B, four builds %.0f B: ratio %.3f (budget 0.86)", grid, builds, grid/builds)
	if grid > 0.86*builds {
		t.Fatalf("RunGrid of the four baselines allocated %.0f B, %.3f × the %.0f B of four NewSimulation builds; budget 0.86",
			grid, grid/builds, builds)
	}
}

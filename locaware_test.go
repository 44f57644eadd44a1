package locaware

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/sim"
)

// fastOptions shrinks the world so facade tests run in milliseconds.
func fastOptions(seed int64) Options {
	o := DefaultOptions()
	o.Seed = seed
	o.Peers = 150
	o.QueryRate = 0.01
	return o
}

// TestQueryRateSetsGossipCadence pins what Options.QueryRate lowers to: the
// rate itself and the Bloom gossip period that follows it (§4.2) — the
// paper's 30 s at or below the paper's rate, shrinking in proportion above
// it, floored at 1 s — and nothing else. The periods are the literal values
// the lowering produced before the rule moved into core.
func TestQueryRateSetsGossipCadence(t *testing.T) {
	for _, c := range []struct {
		queryRate, rate float64
		period          sim.Time
	}{
		{0, 0.00083, 30 * sim.Second},
		{0.00083, 0.00083, 30 * sim.Second},
		{0.005, 0.005, 4980 * sim.Millisecond},
		{0.01, 0.01, 2490 * sim.Millisecond},
		{1, 1, sim.Second},
	} {
		want := core.DefaultConfig()
		want.Gen.RatePerPeer = c.rate
		want.Protocol.BloomGossipPeriod = c.period
		if got := (Options{QueryRate: c.queryRate}).coreConfig(); !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryRate %g lowers to rate %g, gossip period %v; want %g, %v and the defaults otherwise",
				c.queryRate, got.Gen.RatePerPeer, got.Protocol.BloomGossipPeriod, c.rate, c.period)
		}
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(fastOptions(1), ProtocolFlooding, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != ProtocolFlooding || res.Queries != 50 {
		t.Fatalf("result header: %+v", res)
	}
	if res.SuccessRate <= 0 || res.SuccessRate > 1 {
		t.Fatalf("success = %v", res.SuccessRate)
	}
	if res.AvgMessagesPerQuery <= 0 {
		t.Fatalf("messages = %v", res.AvgMessagesPerQuery)
	}
	if res.Events == 0 || res.SimulatedSeconds <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []Protocol{ProtocolFlooding, ProtocolDicas, ProtocolDicasKeys, ProtocolLocaware} {
		res, err := Run(fastOptions(2), p, 20, 40)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Queries != 40 {
			t.Fatalf("%s measured %d", p, res.Queries)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(fastOptions(3), Protocol("bogus"), 0, 10); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(fastOptions(3), ProtocolLocaware, 0, 0); err == nil {
		t.Fatal("zero queries accepted")
	}
	if _, err := Run(fastOptions(3), ProtocolLocaware, -1, 10); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastOptions(4), ProtocolLocaware, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastOptions(4), ProtocolLocaware, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if a.SuccessRate != b.SuccessRate || a.Events != b.Events {
		t.Fatal("same-seed runs differ")
	}
}

func TestLocawareGossipAccounted(t *testing.T) {
	res, err := Run(fastOptions(5), ProtocolLocaware, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlMessages == 0 {
		t.Fatal("no Bloom gossip recorded")
	}
	fl, err := Run(fastOptions(5), ProtocolFlooding, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fl.ControlMessages != 0 {
		t.Fatal("flooding should not gossip")
	}
}

func TestCompareAndFigures(t *testing.T) {
	cmp, err := Compare(fastOptions(6), nil, 50, 100, []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Sets) != 4 {
		t.Fatalf("sets = %d", len(cmp.Sets))
	}
	if cmp.Set(ProtocolLocaware) == nil || cmp.Set("bogus") != nil {
		t.Fatal("Set lookup broken")
	}
	for _, set := range cmp.Sets {
		if len(set.Trials) != 1 || set.SuccessRate.N != 1 || set.SuccessRate.Mean != set.Trials[0].SuccessRate {
			t.Fatalf("%s: unreplicated set is not its one run: %+v", set.Protocol, set.SuccessRate)
		}
	}
	for _, f := range []Figure{FigureDownloadDistance, FigureSearchTraffic, FigureSuccessRate} {
		series := cmp.cmp.FigureSeries(string(f))
		if len(series) != 4 || series[0].HasErrs() {
			t.Fatalf("%s series = %d (errs=%v)", f, len(series), series[0].HasErrs())
		}
		tbl := cmp.FigureTable(f)
		if !strings.Contains(tbl, "Locaware") || !strings.Contains(tbl, "Flooding") {
			t.Fatalf("%s table missing protocols:\n%s", f, tbl)
		}
		csv := cmp.FigureCSV(f)
		if !strings.HasPrefix(csv, "queries,") {
			t.Fatalf("%s csv header: %q", f, strings.SplitN(csv, "\n", 2)[0])
		}
	}
	h := cmp.Headlines()
	if h.TrafficReductionVsFlooding >= 0 {
		t.Fatalf("traffic reduction = %v, want negative", h.TrafficReductionVsFlooding)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(fastOptions(7), []Protocol{"nope"}, 0, 10, nil); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Compare(fastOptions(7), nil, 0, 0, nil); err == nil {
		t.Fatal("zero queries accepted")
	}
	if _, err := Compare(fastOptions(7), nil, -1, 10, nil); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

// TestRepeatedProtocolRefused: a protocol named twice would run twice and
// report once (a comparison keys its cells by name, a figure shows one
// column), so Compare and a sweep spec refuse it, naming the repeat.
func TestRepeatedProtocolRefused(t *testing.T) {
	_, err := Compare(fastOptions(7), []Protocol{ProtocolLocaware, ProtocolDicas, ProtocolLocaware}, 0, 10, nil)
	if err == nil || !strings.Contains(err.Error(), `"Locaware"`) {
		t.Fatalf("Compare with Locaware twice: %v", err)
	}
	_, err = ParseSweep([]byte(`{"name": "twice", "queries": 10, "protocols": ["Locaware", "Locaware"],
		"axes": [{"param": "ttl", "values": [3, 5]}]}`))
	if err == nil || !strings.Contains(err.Error(), `"twice"`) || !strings.Contains(err.Error(), `"Locaware"`) {
		t.Fatalf("sweep spec with Locaware twice: %v", err)
	}
}

func TestOptionsLowering(t *testing.T) {
	o := DefaultOptions()
	o.Peers = 123
	o.Landmarks = 3
	o.TTL = 5
	o.CacheFilenames = 10
	cfg := o.coreConfig()
	if cfg.NumPeers != 123 || cfg.Landmarks != 3 || cfg.Protocol.TTL != 5 ||
		cfg.Protocol.Cache.MaxFilenames != 10 {
		t.Fatalf("lowering lost fields: %+v", cfg)
	}
	// Zero-value options still produce a runnable config.
	var zero Options
	cfg = zero.coreConfig()
	if cfg.NumPeers <= 0 || cfg.Protocol.TTL <= 0 {
		t.Fatalf("zero options not defaulted: %+v", cfg)
	}
}

// TestOptionsFollowTheParamTable: each numeric Options field is paired
// with its own core.Params row — lowering distinct values reads each back
// through its row, defaults lower row for row, and BindFlags defines exactly
// the table's names and writes the fields they set.
func TestOptionsFollowTheParamTable(t *testing.T) {
	var o Options
	for i, f := range o.numeric() {
		switch f := f.(type) {
		case *int:
			*f = 100 + i
		case *float64:
			*f = 100.5 + float64(i)
		}
	}
	cfg, def := o.coreConfig(), core.DefaultConfig()
	dcfg := DefaultOptions().coreConfig()
	for i, p := range core.Params {
		want := 100 + float64(i)
		if !p.Integer {
			want += 0.5
		}
		if got := p.Get(&cfg); got != want {
			t.Errorf("%s lowers to %g, want its field's %g", p.Name, got, want)
		}
		if got, want := p.Get(&dcfg), p.Get(&def); got != want {
			t.Errorf("%s: DefaultOptions lowers to %g, DefaultConfig holds %g", p.Name, got, want)
		}
	}
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	o = DefaultOptions()
	o.BindFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	var rows []string
	for _, p := range core.Params {
		rows = append(rows, p.Name)
	}
	slices.Sort(rows)
	if !slices.Equal(names, rows) {
		t.Fatalf("BindFlags defines %v, the table is %v", names, rows)
	}
	if err := fs.Parse([]string{"-ttl", "5", "-bloom-bits", "600"}); err != nil {
		t.Fatal(err)
	}
	if o.TTL != 5 || o.BloomBits != 600 {
		t.Fatalf("-ttl 5 -bloom-bits 600 set TTL %d and BloomBits %d", o.TTL, o.BloomBits)
	}
}

// TestDefaultsStatedOnce locks the paper's §5.1 setup to one statement:
// the facade defaults are the internal default configuration read back, so
// default, zero and internal configs are the same value (benchmark/README.md
// relies on it) and still carry the paper's numbers.
func TestDefaultsStatedOnce(t *testing.T) {
	want := core.DefaultConfig()
	if got := DefaultOptions().coreConfig(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultOptions lowers to %+v, core default is %+v", got, want)
	}
	if got := (Options{}).coreConfig(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero Options lower to %+v, core default is %+v", got, want)
	}
	paper := Options{
		Seed: 1, Peers: 1000, AvgDegree: 3, Landmarks: 4, Files: 3000, FilesPerPeer: 3,
		KeywordPool: 9000, QueryRate: 0.00083, ZipfS: 1, TTL: 7, Groups: 4,
		CacheFilenames: 50, CacheProviders: 5, BloomBits: 1200,
	}
	if got := DefaultOptions(); !reflect.DeepEqual(got, paper) {
		t.Fatalf("DefaultOptions() = %+v, paper setup is %+v", got, paper)
	}
}

// TestBaselinesOrder pins the figure order and locks that facade, sweep and
// core all read it from the one protocol registry, and that every Protocol
// constant resolves there.
func TestBaselinesOrder(t *testing.T) {
	b := Baselines()
	want := []Protocol{ProtocolFlooding, ProtocolDicas, ProtocolDicasKeys, ProtocolLocaware}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("baselines = %v, want %v", b, want)
	}
	sw, err := ParseSweep([]byte(`{"name":"d","queries":10,"axes":[{"param":"ttl","values":[7]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw.Protocols(), b) {
		t.Fatalf("sweep default protocols = %v, facade baselines %v", sw.Protocols(), b)
	}
	for i, cb := range core.Baselines() {
		if Protocol(cb.Name()) != b[i] {
			t.Fatalf("core baseline %d is %s, facade %s", i, cb.Name(), b[i])
		}
	}
	for _, p := range want {
		if beh, err := p.behavior(); err != nil || beh.Name() != string(p) {
			t.Fatalf("%s.behavior() = %v, %v", p, beh, err)
		}
	}
}

// TestRoutingExtensionRefused: the §6 location-aware routing extension was
// measured against Locaware, won in no cell, and was deleted. Every entry
// point that takes a protocol name refuses it, naming it.
func TestRoutingExtensionRefused(t *testing.T) {
	const name = "Locaware-LR"
	_, runErr := Run(fastOptions(3), Protocol(name), 0, 10)
	_, cmpErr := Compare(fastOptions(3), []Protocol{ProtocolLocaware, Protocol(name)}, 0, 10, nil)
	_, sweepErr := ParseSweep([]byte(`{"name":"lr","queries":10,"protocols":["Locaware","` + name + `"],"axes":[{"param":"ttl","values":[7]}]}`))
	for entry, err := range map[string]error{"Run": runErr, "Compare": cmpErr, "ParseSweep": sweepErr} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s accepted %s or did not name it: %v", entry, name, err)
		}
	}
}

func TestChurnOption(t *testing.T) {
	o := fastOptions(8)
	o.Scenario = mustScenario(t, "steady-churn")
	res, err := Run(o, ProtocolLocaware, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 100 || len(res.Phases) != 1 {
		t.Fatalf("churn run measured %d queries over phases %+v", res.Queries, res.Phases)
	}
}

// TestFlightRecorderKeepsEveryQuery: a slowest-N heap as large as the run
// never evicts, so the recorder keeps every query — the keep-all mode
// `locaware trace` prints as a timeline. Each trace tells one whole story (one
// submit, one download-or-failed outcome, in time order), and a per-query
// cap keeps each query's first events and counts the rest.
func TestFlightRecorderKeepsEveryQuery(t *testing.T) {
	const queries = 20
	run := func(maxEvents int) *Result {
		o := fastOptions(20)
		o.FlightRecorder = &FlightRecorder{SlowestN: queries, MaxEventsPerQuery: maxEvents}
		res, err := Run(o, ProtocolLocaware, 0, queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Traces) != queries {
			t.Fatalf("retained %d traces, want one per query (%d)", len(res.Traces), queries)
		}
		return res
	}
	full := run(0)
	byQuery := map[uint64]*Trace{}
	for _, tr := range full.Traces {
		byQuery[tr.Query] = tr
		submits, outcomes := 0, 0
		for i, e := range tr.Events {
			switch e.Kind.String() {
			case "submit":
				submits++
			case "download", "failed":
				outcomes++
			}
			if i > 0 && e.At < tr.Events[i-1].At {
				t.Fatalf("query %d: events out of time order", tr.Query)
			}
		}
		if submits != 1 || outcomes != 1 || tr.Dropped != 0 {
			t.Fatalf("query %d: %d submits, %d outcomes, %d dropped; want 1, 1, 0", tr.Query, submits, outcomes, tr.Dropped)
		}
	}
	if len(byQuery) != queries {
		t.Fatalf("traces cover %d distinct queries, want %d", len(byQuery), queries)
	}

	const tiny = 3
	dropped := 0
	for _, tr := range run(tiny).Traces {
		whole := byQuery[tr.Query]
		if n := min(tiny, len(whole.Events)); !reflect.DeepEqual(tr.Events, whole.Events[:n]) {
			t.Fatalf("query %d: capped trace kept %d events, want the query's first %d", tr.Query, len(tr.Events), n)
		}
		if len(tr.Events)+tr.Dropped != len(whole.Events) {
			t.Fatalf("query %d: kept %d + dropped %d, want the %d an uncapped run keeps",
				tr.Query, len(tr.Events), tr.Dropped, len(whole.Events))
		}
		dropped += tr.Dropped
	}
	if dropped == 0 {
		t.Fatal("a 3-event cap dropped nothing")
	}
}

// TestImpossibleCatalogueIsAnError: Options no run could honour are refused
// by every entry point that takes Options, with an error naming the fields:
// a keyword pool too small to name the catalogue's files (at the parent
// commit each of these calls hung), one wider than keywords spell at one
// width (it would have spelt two billion strings per world), more
// landmarks than a locId can number (21! overflows), a flight recorder
// with no retention criterion (it buffered every query and silently
// returned no trace), a degree, filter size or share count the world's
// builders would have silently replaced (0.5 built degree 3, 20 built
// 11.99, 4 bits built 8, 11 of 10 files shared 10), and a negative option
// (TTL -1 ran TTL 7, Peers -5 ran 1 000 peers).
func TestImpossibleCatalogueIsAnError(t *testing.T) {
	sw, err := ParseSweep([]byte(`{"name":"p","queries":10,"axes":[{"param":"groups","values":[2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		set   func(*Options)
		names []string
	}{
		{"catalogue", func(o *Options) { o.KeywordPool = 20 }, []string{"KeywordPool 20", "Files 3000"}}, // C(20,3) = 1140 < 3000 files
		{"wide pool", func(o *Options) { o.KeywordPool = 2_000_000_000 }, []string{"KeywordPool 2000000000", "100000"}},
		{"landmarks", func(o *Options) { o.Landmarks = 21 }, []string{"landmarks 21", "20"}}, // 21! overflows a locId
		{"zero recorder", func(o *Options) { o.FlightRecorder = &FlightRecorder{} }, []string{"SlowestN", "KeepFailed", "MinHops"}},
		{"thin degree", func(o *Options) { o.AvgDegree = 0.5 }, []string{"avg-degree 0.5", "links for", "arrival tree"}},
		{"dense degree", func(o *Options) { o.AvgDegree = 20 }, []string{"avg-degree 20", "MaxDegree 12"}},
		{"tiny filter", func(o *Options) { o.BloomBits = 4 }, []string{"bloom-bits 4", "8"}},
		{"shares", func(o *Options) { o.Files, o.FilesPerPeer = 10, 11 }, []string{"files-per-peer 11", "files 10"}},
		{"negative TTL", func(o *Options) { o.TTL = -1 }, []string{"ttl: value -1"}},
		{"negative peers", func(o *Options) { o.Peers = -5 }, []string{"peers: value -5"}},
	} {
		o := fastOptions(21)
		row.set(&o)
		for entry, call := range map[string]func() error{
			"Run":        func() error { _, err := Run(o, ProtocolLocaware, 0, 10); return err },
			"RunTrials":  func() error { _, err := RunTrials(o, ProtocolLocaware, 0, 10); return err },
			"Compare":    func() error { _, err := Compare(o, nil, 0, 10, nil); return err },
			"Localities": func() error { _, err := Localities(o); return err },
			"RunSweep":   func() error { _, err := RunSweep(o, sw); return err },
		} {
			err := call()
			for _, name := range row.names {
				if err == nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("%s, %s: want an error naming %v, got %v", row.name, entry, row.names, err)
				}
			}
		}
	}
}

// TestCompareRefusesCheckpointsItCannotPlot: a figure grid that does not
// ascend strictly within [1, queries] is an error naming the first bad
// checkpoint and the bound, where it used to be sorted, deduplicated and
// clipped to a one-row figure; nil still plots ten equal steps.
func TestCompareRefusesCheckpointsItCannotPlot(t *testing.T) {
	o := fastOptions(22)
	for _, tc := range []struct {
		cps  []int
		want string
	}{
		{[]int{20, 20, 500, -3}, "checkpoint 20 after 20"},
		{[]int{20, 20}, "checkpoint 20 after 20"},
		{[]int{20, 500}, "checkpoint 500 after 20"},
		{[]int{-3}, "checkpoint -3"},
		{[]int{30, 20}, "checkpoint 20 after 30"},
	} {
		_, err := Compare(o, []Protocol{ProtocolFlooding}, 0, 40, tc.cps)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "[1, 40]") {
			t.Fatalf("checkpoints %v: want an error naming %q and [1, 40], got %v", tc.cps, tc.want, err)
		}
	}
	cmp, err := Compare(o, []Protocol{ProtocolFlooding}, 0, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(cmp.FigureTable(FigureSuccessRate), "\n"); rows != 11 {
		t.Fatalf("nil checkpoints: %d table lines, want a header and ten steps:\n%s", rows, cmp.FigureTable(FigureSuccessRate))
	}
}

func TestLocalitiesReport(t *testing.T) {
	opts := DefaultOptions()
	opts.Peers = 500
	rep4, err := Localities(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Landmarks != 4 || rep4.PossibleLocIDs != 24 {
		t.Fatalf("report = %+v", rep4)
	}
	if rep4.OccupiedLocIDs == 0 || rep4.OccupiedLocIDs > 24 {
		t.Fatalf("occupied = %d", rep4.OccupiedLocIDs)
	}
	if rep4.MeanPeersPerLocality <= 0 || rep4.LargestLocality <= 0 {
		t.Fatalf("report = %+v", rep4)
	}
	opts.Landmarks = 5
	rep5, err := Localities(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep5.PossibleLocIDs != 120 {
		t.Fatalf("5 landmarks possible = %d", rep5.PossibleLocIDs)
	}
	if rep5.MeanPeersPerLocality >= rep4.MeanPeersPerLocality {
		t.Fatal("5 landmarks should scatter peers more thinly (§5.1)")
	}
}

func TestRunTrialsSingleTrialMatchesRun(t *testing.T) {
	o := fastOptions(30)
	single, err := Run(o, ProtocolLocaware, 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	o.Trials = 1
	agg, err := RunTrials(o, ProtocolLocaware, 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Trials) != 1 {
		t.Fatalf("trials = %d", len(agg.Trials))
	}
	if !reflect.DeepEqual(agg.Trials[0], single) {
		t.Fatalf("Trials=1 diverged from Run:\n%+v\nvs\n%+v", agg.Trials[0], single)
	}
	if agg.SuccessRate.Mean != single.SuccessRate || agg.SuccessRate.CI95() != 0 {
		t.Fatalf("estimate = %+v", agg.SuccessRate)
	}
}

func TestRunTrialsWorkerCountInvariant(t *testing.T) {
	o := fastOptions(31)
	o.Trials = 4
	o.Workers = 1
	a, err := RunTrials(o, ProtocolLocaware, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	b, err := RunTrials(o, ProtocolLocaware, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Workers=1 vs Workers=8 aggregated results differ")
	}
}

func TestRunTrialsErrors(t *testing.T) {
	o := fastOptions(32)
	if _, err := RunTrials(o, Protocol("bogus"), 0, 10); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := RunTrials(o, ProtocolLocaware, 0, 0); err == nil {
		t.Fatal("zero queries accepted")
	}
	if _, err := RunTrials(o, ProtocolLocaware, -1, 10); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestCompareReplicatedDeterministicAcrossWorkers(t *testing.T) {
	o := fastOptions(33)
	o.Trials = 3
	run := func(workers int) *Comparison {
		oo := o
		oo.Workers = workers
		cmp, err := Compare(oo, []Protocol{ProtocolFlooding, ProtocolLocaware}, 10, 40, []int{20, 40})
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Sets, b.Sets) {
		t.Fatal("Sets differ across worker counts")
	}
	for _, f := range []Figure{FigureDownloadDistance, FigureSearchTraffic, FigureSuccessRate} {
		if a.FigureTable(f) != b.FigureTable(f) {
			t.Fatalf("%s table differs across worker counts", f)
		}
		if a.FigureCSV(f) != b.FigureCSV(f) {
			t.Fatalf("%s csv differs across worker counts", f)
		}
	}
}

func TestCompareReplicatedFiguresAndHeadlines(t *testing.T) {
	o := fastOptions(34)
	o.Trials = 2
	cmp, err := Compare(o, nil, 20, 60, []int{30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Sets) != 4 {
		t.Fatalf("sets = %d", len(cmp.Sets))
	}
	if cmp.Set(ProtocolLocaware) == nil || cmp.Set("bogus") != nil {
		t.Fatal("Set lookup broken")
	}
	tbl := cmp.FigureTable(FigureSuccessRate)
	if !strings.Contains(tbl, "±") {
		t.Fatalf("table missing error bars:\n%s", tbl)
	}
	csv := cmp.FigureCSV(FigureSuccessRate)
	if !strings.Contains(csv, "Locaware_ci95") {
		t.Fatalf("csv missing ci column: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	series := cmp.cmp.FigureSeries(string(FigureSearchTraffic))
	if len(series) != 4 || !series[0].HasErrs() {
		t.Fatal("series missing error bars")
	}
	h := cmp.Headlines()
	if h.TrafficReductionVsFlooding >= 0 {
		t.Fatalf("traffic reduction = %v, want negative", h.TrafficReductionVsFlooding)
	}
	for _, set := range cmp.Sets {
		if set.SuccessRate.N != 2 || len(set.Trials) != 2 {
			t.Fatalf("%s: %+v", set.Protocol, set.SuccessRate)
		}
	}
}

func TestCompareReplicatedErrors(t *testing.T) {
	o := fastOptions(35)
	o.Trials = 3 // replication never bypasses validation
	if _, err := Compare(o, []Protocol{"nope"}, 0, 10, nil); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Compare(o, nil, 0, 0, nil); err == nil {
		t.Fatal("zero queries accepted")
	}
	if _, err := Compare(o, nil, -1, 10, nil); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{N: 8, Mean: 0.431, StdDev: 0.02} // CI95() = 1.96·0.02/√8 ≈ 0.0139
	if e.String() != "0.431±0.014" {
		t.Fatalf("Estimate.String() = %q", e.String())
	}
}

func TestEstimateStringSingleTrial(t *testing.T) {
	e := Estimate{N: 1, Mean: 0.431}
	if e.String() != "0.431" {
		t.Fatalf("single-trial Estimate.String() = %q, want bare mean", e.String())
	}
}

func TestCompareHonorsWorkers(t *testing.T) {
	o := fastOptions(36)
	o.Workers = 1
	a, err := Compare(o, []Protocol{ProtocolFlooding, ProtocolLocaware}, 10, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	b, err := Compare(o, []Protocol{ProtocolFlooding, ProtocolLocaware}, 10, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sets, b.Sets) {
		t.Fatal("Compare results differ across worker counts")
	}
}

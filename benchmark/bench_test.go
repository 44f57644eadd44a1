package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	locaware "github.com/p2prepro/locaware"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sweep"
)

// tiny is a 200-peer stand-in for the single-run workloads: same code
// paths, a fraction of a second per world. The full workloads never run
// under go test.
var tiny = &workload{
	name: "tiny", behavior: protocol.Locaware{}, peers: 200, warmup: 50, measured: 150,
	unitSeconds: 1, traceUnits: 1,
}

// tinySpec is campaignSpec's shape at test size.
const tinySpec = `{
  "name": "tiny-grid",
  "warmup": 30,
  "queries": 90,
  "trials": 2,
  "scenario": "steady-churn",
  "axes": [
    {"param": "peers", "values": [100, 150]},
    {"param": "scenario-intensity", "values": [0, 2]}
  ]
}`

func TestDigestStableAcrossRuns(t *testing.T) {
	a, _, _ := runSim(tiny.world(3), nil)
	b, _, _ := runSim(tiny.world(3), nil)
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different sim_digest: %s vs %s", a.Digest, b.Digest)
	}
	c, _, _ := runSim(tiny.world(4), nil)
	if c.Digest == a.Digest {
		t.Fatalf("seeds 3 and 4 share sim_digest %s: the digest does not cover the run", a.Digest)
	}
	if a.Failed != 0 || a.Attempted != tiny.warmup+tiny.measured {
		t.Fatalf("attempted %d failed %d, want %d and 0", a.Attempted, a.Failed, tiny.warmup+tiny.measured)
	}
}

func TestSpanAccounting(t *testing.T) {
	plain, _, res := runSim(tiny.world(3), nil)
	rec := newSpanRecorder()
	traced, _, _ := runSim(tiny.world(3), rec)
	if traced.Digest != plain.Digest {
		t.Fatalf("the span observer changed the simulated statistics")
	}
	if cov := rec.coverage(); cov < 0.95 || cov > 1.0001 {
		t.Fatalf("trace.coverage = %.4f, want within [0.95, 1]", cov)
	}
	var spans uint64
	for _, n := range rec.count {
		spans += n
	}
	if spans != res.Events {
		t.Fatalf("%d spans for %d delivered events", spans, res.Events)
	}
	if rec.count[otherKind] > spans/100 {
		t.Fatalf("%d of %d events fell outside the named kinds", rec.count[otherKind], spans)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []jsonMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s %q (unit %q): outside the allowed characters", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s #%d: program has %+v, BENCHMARK.json has %+v", kind, i, d, l)
			}
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in the program, %v in BENCHMARK.json, want equal and within (0, 0.25]", d.Name, d.Bound, l.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s: a layer metric carries a bound", d.Name)
			}
		}
	}
	check("end_to_end", endToEndMetrics, doc.EndToEnd, true)
	check("per_layer", perLayer, doc.PerLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d layer metrics, the contract allows 128", len(perLayer))
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(workloads), len(doc.Workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload #%d: program has %q / %q, BENCHMARK.json has %+v", i, w.name, w.why, doc.Workloads[i])
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters (%d)", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

func TestEndToEndEmitsEveryMetric(t *testing.T) {
	e, err := tiny.runEndToEnd(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Problems) != 0 {
		t.Fatalf("problems: %v", e.Problems)
	}
	if len(e.Units) != minUnits || e.Units[minUnits-1].Digest != e.Units[0].Digest {
		t.Fatalf("%d units; the last must repeat unit 0", len(e.Units))
	}
	for _, d := range endToEndMetrics {
		if s, ok := e.Stats[d.Name]; !ok || s.Median <= 0 {
			t.Errorf("%s: median %v (present %v), want > 0", d.Name, s.Median, ok)
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	l, err := tiny.runTraced(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Problems) != 0 {
		t.Fatalf("problems: %v", l.Problems)
	}
	for _, d := range perLayer {
		if _, ok := l.Values[d.Name]; !ok {
			t.Errorf("%s is listed and was not measured", d.Name)
		}
	}
	if len(l.Values) != len(perLayer) {
		listed := map[string]bool{}
		for _, d := range perLayer {
			listed[d.Name] = true
		}
		for name := range l.Values {
			if !listed[name] {
				t.Errorf("%s was measured and is not listed", name)
			}
		}
	}
	if cov := l.Values["trace.coverage"]; cov < 0.95 {
		t.Errorf("trace.coverage = %.4f", cov)
	}
}

// The benchmark builds worlds from core.Config directly; facade and CLI
// users go through locaware.Options. Both must be the same traffic.
func TestDirectRunMatchesFacade(t *testing.T) {
	wd := tiny.world(5)
	_, _, direct := runSim(wd, nil)
	o := locaware.DefaultOptions()
	o.Seed, o.Peers = 5, tiny.peers
	facade, err := locaware.Run(o, locaware.ProtocolLocaware, tiny.warmup, tiny.measured)
	if err != nil {
		t.Fatal(err)
	}
	c := direct.Collector
	got := []any{direct.Events, direct.Duration.Seconds(), c.Submitted(), c.SuccessRate(), c.AvgMessagesPerQuery(),
		c.AvgDownloadRTT(), c.SameLocalityRate(), c.CacheHitRate(), c.AvgHops(), direct.ControlMessages,
		direct.Forwarding.BloomMatched, direct.Forwarding.GidMatched, direct.Forwarding.Fallback,
		direct.CacheFilenames, direct.CacheProviderEntries}
	want := []any{facade.Events, facade.SimulatedSeconds, facade.Queries, facade.SuccessRate, facade.AvgMessagesPerQuery,
		facade.AvgDownloadRTTMs, facade.SameLocalityRate, facade.CacheHitRate, facade.AvgHops, facade.ControlMessages,
		facade.BloomForwards, facade.GidForwards, facade.FallbackForwards,
		facade.CachedFilenames, facade.CachedProviderEntries}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("direct core run and locaware.Run differ:\n direct %v\n facade %v", got, want)
	}
}

func TestCampaignDigestIndependentOfWorkers(t *testing.T) {
	one, err := runCampaignUnit(tinySpec, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := runCampaignUnit(tinySpec, 7, campaignWorkers())
	if err != nil {
		t.Fatal(err)
	}
	if one.Failed != 0 || one.Digest != many.Digest {
		t.Fatalf("campaign digest %s on one worker, %s on %d (failed %d)", one.Digest, many.Digest, campaignWorkers(), one.Failed)
	}
	if want := 4 * 4 * 2; one.Attempted != want || one.Cells != 4 || one.Queries != want*120 {
		t.Fatalf("unit accounting: %+v", one)
	}
}

// campaignBase and campaignCellWorlds restate in core terms what the facade
// and the sweep engine do; the fingerprint covers every base parameter, the
// cell estimate the per-cell lowering and seeds.
func TestCampaignLoweringMatchesFacade(t *testing.T) {
	const seed = 7
	o := campaignOptions(seed, 1)
	sw, err := planCampaign(tinySpec, o)
	if err != nil {
		t.Fatal(err)
	}
	facade, err := locaware.SweepFingerprint(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseCampaignSpec(tinySpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.NewPlan(campaignBase(seed), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hash() != facade {
		t.Fatalf("campaignBase fingerprints as %s, the facade as %s", plan.Hash(), facade)
	}

	const cell = 3
	res, err := locaware.RunSweep(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	worlds, err := campaignCellWorlds(tinySpec, seed, cell)
	if err != nil {
		t.Fatal(err)
	}
	for p, proto := range locaware.Baselines() {
		var success, msgs float64
		for trial := 0; trial < spec.Trials; trial++ {
			_, _, r := runSim(worlds[p*spec.Trials+trial], nil)
			success += r.Collector.SuccessRate()
			msgs += r.Collector.AvgMessagesPerQuery()
		}
		for metric, sum := range map[string]float64{"success": success, "msgs": msgs} {
			est, err := res.CellEstimate(cell, proto, metric)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum / float64(spec.Trials); got != est.Mean {
				t.Errorf("cell %d %s %s: direct worlds give %v, the sweep %v", cell, proto, metric, got, est.Mean)
			}
		}
	}
}

// The naive baseline follows the Flooding behaviour's forwarding rules, so
// on one world and one query stream it delivers exactly as many query
// messages as the optimised engine — until natural replication (a
// requester becoming a provider, which the baseline leaves out) answers a
// later query a hop earlier in the engine. The first queries must agree
// exactly; a longer stream within one per cent, the engine never above.
func TestNaiveFloodDeliversWhatTheEngineDelivers(t *testing.T) {
	for _, tc := range []struct {
		queries   int
		tolerance float64
	}{{6, 0}, {naiveQueries, 0.01}} {
		wd := world{cfg: tiny.world(3).cfg, behavior: protocol.Flooding{}, measured: tc.queries}
		rec := newSpanRecorder()
		runSim(wd, rec)
		v := map[string]float64{}
		naiveFlood(v, wd, tc.queries)
		got, want := v["naive.flood.events"], float64(rec.count[0])
		if want == 0 || got < want || got > want*(1+tc.tolerance) {
			t.Errorf("%d queries: naive flood delivered %v query messages, the engine %v", tc.queries, got, want)
		}
	}
}

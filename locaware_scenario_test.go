package locaware

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runScenario runs protocol p under scenario sc through the one single-run
// entry point.
func runScenario(t *testing.T, o Options, p Protocol, sc *Scenario, warmup, queries int) *Result {
	t.Helper()
	o.Scenario = sc
	r, err := Run(o, p, warmup, queries)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScenarioWorkerInvariance locks the parallelism contract for scenario
// runs: the worker count changes wall-clock time, never a single byte of
// output — whole-run figures, per-phase windows, everything.
func TestScenarioWorkerInvariance(t *testing.T) {
	run := func(workers int) *Comparison {
		o := goldenOptions()
		o.Workers = workers
		o.Scenario = mustScenario(t, "flashcrowd")
		cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	seq, par := run(1), run(8)
	for _, f := range []Figure{FigureDownloadDistance, FigureSearchTraffic, FigureSuccessRate} {
		if seq.FigureTable(f) != par.FigureTable(f) {
			t.Fatalf("%s: figure table differs across worker counts", f)
		}
	}
	for i, set := range seq.Sets {
		sr, pr := set.Trials[0], par.Sets[i].Trials[0]
		if !reflect.DeepEqual(sr.Phases, pr.Phases) {
			t.Fatalf("%s: phase metrics differ across worker counts:\n%+v\n%+v",
				sr.Protocol, sr.Phases, pr.Phases)
		}
	}
}

// renderRun prints every number of a Result and of its phase windows with
// %v, the shortest form that round-trips a float64, so string equality is
// bit equality.
func renderRun(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol=%s queries=%d\n", r.Protocol, r.Queries)
	fmt.Fprintf(&b, "success=%v msgs/q=%v rtt=%v sameLoc=%v cacheHit=%v hops=%v\n",
		r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs, r.SameLocalityRate, r.CacheHitRate, r.AvgHops)
	fmt.Fprintf(&b, "forwards bloom=%d gid=%d fallback=%d flood=%d\n",
		r.BloomForwards, r.GidForwards, r.FallbackForwards, r.FloodForwards)
	fmt.Fprintf(&b, "control msgs=%d kbits=%v cached files=%d providers=%d\n",
		r.ControlMessages, r.ControlKbits, r.CachedFilenames, r.CachedProviderEntries)
	fmt.Fprintf(&b, "simulated=%vs events=%d\n", r.SimulatedSeconds, r.Events)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %s (%d,%d] n=%d success=%v msgs/q=%v rtt=%v sameLoc=%v cacheHit=%v hops=%v\n",
			p.Phase, p.Start, p.End, p.Queries, p.SuccessRate, p.AvgMessagesPerQuery, p.AvgDownloadRTTMs,
			p.SameLocalityRate, p.CacheHitRate, p.AvgHops)
	}
	return b.String()
}

// TestLegacyChurnBitIdenticalToScenario is the migration proof for the
// deleted Options.Churn flag: testdata/golden_steady_churn_200peers.txt was
// rendered by renderRun's twin from an Options.Churn = true Locaware run at
// the last commit that had the flag, and the built-in steady-churn scenario
// must reproduce it byte for byte — every scalar, counter and phase window —
// except one event: the capture's events count is one lower than that run's,
// because warmup no longer ends with a collector-swap event.
func TestLegacyChurnBitIdenticalToScenario(t *testing.T) {
	res := runScenario(t, goldenOptions(), ProtocolLocaware, mustScenario(t, "steady-churn"), 100, 200)
	path := filepath.Join("testdata", "golden_steady_churn_200peers.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading capture: %v", err)
	}
	if got := renderRun(res); got != string(want) {
		t.Fatalf("steady-churn scenario drifted from the Options.Churn capture %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	if len(res.Phases) != 1 || res.Phases[0].Phase != "steady" {
		t.Fatalf("steady-churn run reports phases %+v, want the single steady phase", res.Phases)
	}
}

// TestScenarioPhaseAccounting checks the per-phase windows tile the
// measured stream exactly: spans are contiguous, cover (0, queries], and
// their query counts and message totals recompose the whole-run scalars.
func TestScenarioPhaseAccounting(t *testing.T) {
	const queries = 200
	res := runScenario(t, goldenOptions(), ProtocolLocaware, mustScenario(t, "regional-outage"), 100, queries)
	prev := 0
	total := 0
	var msgSum, succ float64
	for _, p := range res.Phases {
		if p.Start != prev {
			t.Fatalf("phase %q starts at %d, want %d", p.Phase, p.Start, prev)
		}
		if p.Queries != p.End-p.Start {
			t.Fatalf("phase %q has %d queries over span (%d,%d]", p.Phase, p.Queries, p.Start, p.End)
		}
		prev = p.End
		total += p.Queries
		msgSum += p.AvgMessagesPerQuery * float64(p.Queries)
		succ += p.SuccessRate * float64(p.Queries)
	}
	if prev != queries || total != queries {
		t.Fatalf("phases cover %d/%d queries to %d", total, queries, prev)
	}
	if got := msgSum / queries; math.Abs(got-res.AvgMessagesPerQuery) > 1e-9 {
		t.Fatalf("phase-weighted msgs/q %v != whole-run %v", got, res.AvgMessagesPerQuery)
	}
	if got := succ / queries; math.Abs(got-res.SuccessRate) > 1e-9 {
		t.Fatalf("phase-weighted success %v != whole-run %v", got, res.SuccessRate)
	}
}

// TestScenarioErrors locks the error surface: unknown names and
// unresolvable timelines fail with errors, not panics, on every entry
// point.
func TestScenarioErrors(t *testing.T) {
	if _, err := ScenarioByName("nope"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
	// 4 phases cannot tile 3 measured queries.
	o := goldenOptions()
	o.Scenario = mustScenario(t, "flashcrowd")
	if _, err := Run(o, ProtocolLocaware, 0, 3); err == nil {
		t.Fatal("Run with unresolvable timeline accepted")
	}
	if _, err := RunTrials(o, ProtocolLocaware, 0, 3); err == nil {
		t.Fatal("RunTrials with unresolvable timeline accepted")
	}
	if _, err := Compare(o, Baselines(), 0, 3, nil); err == nil {
		t.Fatal("Compare with unresolvable timeline accepted")
	}
}

// TestScenarioRegistry locks the public registry surface.
func TestScenarioRegistry(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Description() == "" || len(sc.PhaseNames()) == 0 {
			t.Fatalf("scenario %q is underdocumented", name)
		}
	}
}

// TestGoldenScenarioTable locks the fixed-seed flashcrowd scenario output
// at 200 peers — the scenario counterpart of TestGoldenCompareTable. The
// table covers both the paired figure view and every protocol's per-phase
// windows, so any drift in the dynamics timeline, the event RNG, or the
// per-phase collector shows up as a byte diff. Regenerate with
// `go test -run TestGoldenScenarioTable -update .` and justify the diff.
func TestGoldenScenarioTable(t *testing.T) {
	o := goldenOptions()
	o.Scenario = mustScenario(t, "flashcrowd")
	cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("== fig4-success-rate under scenario flashcrowd\n")
	b.WriteString(cmp.FigureTable(FigureSuccessRate))
	for _, set := range cmp.Sets {
		b.WriteString("== phases: " + string(set.Protocol) + "\n")
		b.WriteString(phaseTable(set.Trials[0].Phases))
	}
	got := b.String()

	checkGolden(t, "golden_scenario_flashcrowd_200peers.txt", got)
}

// TestGoldenScenarioRuns pins every number of a Locaware run (renderRun) under
// each built-in scenario and under "edges", which reaches the event rules no
// built-in does (tiny and oversized hot sets, factors at and below 1, unset
// copies and rates, more copies than peers, fast churn, every file removed).
func TestGoldenScenarioRuns(t *testing.T) {
	edges, err := ParseScenario([]byte(`{"name": "edges", "churn_interval_s": 1, "phases": [
	  {"name": "a", "fraction": 1, "churn": {"leave_prob": 0.3, "join_prob": 0.05, "min_online_fraction": 0.9},
	   "events": [{"kind": "flash-crowd", "hot_files": 1, "rate_factor": 2, "zipf_s": 0.8}]},
	  {"name": "b", "fraction": 1, "events": [{"kind": "flash-crowd", "hot_files": 5000}, {"kind": "flash-crowd", "rate_factor": 0.5},
	    {"kind": "degrade-region", "localities": 1, "latency_factor": 1.5}]},
	  {"name": "c", "fraction": 1, "events": [{"kind": "restore-region"}, {"kind": "inject-files", "files": 30},
	    {"kind": "inject-files", "files": 5, "copies": 500}, {"kind": "migrate-providers", "files": 5000},
	    {"kind": "degrade-region", "localities": 30, "latency_factor": 0.5, "link_drop_frac": 0.1}]},
	  {"name": "d", "fraction": 1, "events": [{"kind": "remove-files", "files": 5000}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	scs := []*Scenario{edges}
	for _, name := range ScenarioNames() {
		scs = append(scs, mustScenario(t, name))
	}
	var b strings.Builder
	for _, sc := range scs {
		fmt.Fprintf(&b, "== %s\n%s", sc.Name(), renderRun(runScenario(t, goldenOptions(), ProtocolLocaware, sc, 100, 200)))
	}
	checkGolden(t, "golden_scenario_runs_200peers.txt", b.String())
}

// phaseTable renders one run's per-phase metrics as an aligned text table:
// one row per phase, one column per metric.
func phaseTable(phases []PhaseMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %9s %8s %10s %9s %10s %7s\n",
		"phase", "queries", "success", "msgs/q", "rtt(ms)", "sameLoc", "cacheHit", "hops")
	for _, p := range phases {
		fmt.Fprintf(&b, "%-12s %8d %9.3f %8.1f %10.1f %9.3f %10.3f %7.2f\n",
			p.Phase, p.Queries, p.SuccessRate, p.AvgMessagesPerQuery, p.AvgDownloadRTTMs,
			p.SameLocalityRate, p.CacheHitRate, p.AvgHops)
	}
	return b.String()
}

// TestScenarioTrialsContract locks replication under scenarios: trial 0 of
// a replicated scenario run is bit-identical to the sequential Run, and
// every trial reports the full phase timeline.
func TestScenarioTrialsContract(t *testing.T) {
	o := goldenOptions()
	o.Scenario = mustScenario(t, "weekend-surge")
	o.Trials = 2
	o.Workers = 2
	tr, err := RunTrials(o, ProtocolLocaware, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	single := o
	single.Trials, single.Workers = 0, 0
	seq, err := Run(single, ProtocolLocaware, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Trials[0], seq) {
		t.Fatalf("trial 0 under scenario != sequential run:\n%+v\n%+v", tr.Trials[0], seq)
	}
	for i, r := range tr.Trials {
		if len(r.Phases) != 3 {
			t.Fatalf("trial %d has %d phases, want 3", i, len(r.Phases))
		}
	}
}

// TestScenarioPhaseEstimates locks the replicated per-phase surface:
// RunTrials/Compare under a scenario aggregate the phase windows
// across trials, phase-aligned, with cross-trial spread — and a
// single-trial comparison collapses to the per-run phase values with
// zero-width error bars.
func TestScenarioPhaseEstimates(t *testing.T) {
	o := goldenOptions()
	o.Scenario = mustScenario(t, "churn-waves")
	o.Trials = 2
	o.Workers = 2
	tr, err := RunTrials(o, ProtocolLocaware, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != 4 {
		t.Fatalf("churn-waves aggregated %d phases, want 4", len(tr.Phases))
	}
	for i, ph := range tr.Phases {
		if ph.SuccessRate.N != 2 {
			t.Fatalf("phase %d pools %d trials, want 2", i, ph.SuccessRate.N)
		}
		// The estimate must be the mean of the per-trial phase values.
		want := (tr.Trials[0].Phases[i].SuccessRate + tr.Trials[1].Phases[i].SuccessRate) / 2
		if ph.SuccessRate.Mean != want {
			t.Fatalf("phase %d success mean %g != trial mean %g", i, ph.SuccessRate.Mean, want)
		}
		if ph.Phase != tr.Trials[0].Phases[i].Phase || ph.End != tr.Trials[0].Phases[i].End {
			t.Fatalf("phase %d identity drifted: %+v", i, ph)
		}
	}
	table := tr.PhaseTable()
	if !strings.Contains(table, "wave") || !strings.Contains(table, "±") {
		t.Fatalf("replicated phase table lacks phases or error bars:\n%s", table)
	}

	// Single-trial comparison: phase estimates equal the run's own phase
	// metrics exactly, with no spread.
	single := goldenOptions()
	single.Scenario = mustScenario(t, "churn-waves")
	cmp, err := Compare(single, []Protocol{ProtocolLocaware}, 100, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := cmp.Set(ProtocolLocaware)
	if len(set.Phases) != 4 {
		t.Fatalf("single-trial comparison aggregated %d phases", len(set.Phases))
	}
	for i, ph := range set.Phases {
		got := set.Trials[0].Phases[i]
		if ph.SuccessRate.Mean != got.SuccessRate || ph.SuccessRate.CI95() != 0 {
			t.Fatalf("phase %d: single-trial estimate %+v != run value %g", i, ph.SuccessRate, got.SuccessRate)
		}
	}
}

// TestScenarioTraceAnnotations locks the phase-entry trace surface: a
// recorded scenario run reports one "phase" event per phase on
// Result.TracePhases, in timeline order, with no acting peer.
func TestScenarioTraceAnnotations(t *testing.T) {
	o := goldenOptions()
	o.Peers = 80
	o.Scenario = mustScenario(t, "churn-waves")
	o.FlightRecorder = &FlightRecorder{SlowestN: 40}
	res, err := Run(o, ProtocolLocaware, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	var perfetto strings.Builder
	if err := res.WritePerfetto(&perfetto); err != nil || !strings.Contains(perfetto.String(), `"ph":"X"`) {
		t.Fatalf("Perfetto export has no span (%v):\n%s", err, perfetto.String())
	}
	phases := res.TracePhases
	if len(phases) != 4 {
		t.Fatalf("traced run emitted %d phase events, want 4", len(phases))
	}
	for i, e := range phases {
		if e.Peer != -1 || e.From != -1 {
			t.Fatalf("phase event %d carries a peer: %+v", i, e)
		}
		if i > 0 && e.At < phases[i-1].At {
			t.Fatalf("phase events out of timeline order: %+v", phases)
		}
		if !strings.Contains(e.String(), "phase") {
			t.Fatalf("phase event renders as %q", e.String())
		}
	}
	for i, want := range []string{"calm (1/4)", "wave (2/4) events=[churn-wave]", "recovery (3/4) events=[rejoin]", "settled (4/4)"} {
		if want = "scenario=churn-waves phase=" + want; phases[i].Detail != want {
			t.Fatalf("phase event %d = %q, want %q", i, phases[i].Detail, want)
		}
	}
}

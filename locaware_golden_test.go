package locaware

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got with testdata/<file> byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from golden file %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenOptions is the fixed golden world: 200 peers, seed 1, accelerated
// arrivals. Any change to these values invalidates the golden file on
// purpose — the point is that refactors must not silently drift the
// numbers behind the paper's figures.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Seed = 1
	o.Peers = 200
	o.QueryRate = 0.01
	return o
}

// TestGoldenCompareTable locks the fixed-seed Compare output for the
// paper's Fig. 3 (search traffic) and Fig. 4 (success rate) at 200 peers.
// A legitimate behaviour change must regenerate the file with
// `go test -run TestGoldenCompareTable -update .` and justify the diff in
// review; anything else reproducing this table byte-for-byte is the
// determinism contract working.
func TestGoldenCompareTable(t *testing.T) {
	cmp, err := Compare(goldenOptions(), Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	got := "== fig3-search-traffic (messages/query)\n" +
		cmp.FigureTable(FigureSearchTraffic) +
		"== fig4-success-rate\n" +
		cmp.FigureTable(FigureSuccessRate)

	checkGolden(t, "golden_compare_200peers.txt", got)
}

// TestGoldenStreamingMatchesRecords is the streaming-vs-records
// equivalence lock: the golden table was generated by the original
// record-replay pipeline, so the streaming collector (default) and the
// RetainRecords collector must both reproduce it byte-for-byte on the
// fixed-seed 200-peer run, and the retained records must re-derive the
// same scalar metrics bit-for-bit.
func TestGoldenStreamingMatchesRecords(t *testing.T) {
	render := func(retain bool) (*Comparison, string) {
		o := goldenOptions()
		o.RetainRecords = retain
		cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
		if err != nil {
			t.Fatal(err)
		}
		return cmp, "== fig3-search-traffic (messages/query)\n" +
			cmp.FigureTable(FigureSearchTraffic) +
			"== fig4-success-rate\n" +
			cmp.FigureTable(FigureSuccessRate)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_compare_200peers.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	streamCmp, streaming := render(false)
	_, retained := render(true)
	if streaming != string(want) {
		t.Fatalf("streaming pipeline drifted from golden table:\n%s", streaming)
	}
	if retained != string(want) {
		t.Fatalf("RetainRecords pipeline drifted from golden table:\n%s", retained)
	}

	// Record retention is opt-in: the streaming run must carry no records,
	// the retained run exactly one per measured query — and replaying the
	// records must reproduce the streamed scalar metrics bit-for-bit.
	for _, set := range streamCmp.Sets {
		if set.Trials[0].Records != nil {
			t.Fatalf("%s: streaming run retained records", set.Protocol)
		}
	}
	o := goldenOptions()
	o.RetainRecords = true
	res, err := Run(o, ProtocolLocaware, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 200 {
		t.Fatalf("retained %d records for 200 measured queries", len(res.Records))
	}
	var succ, msgs int
	var rttSum float64
	for _, rec := range res.Records {
		msgs += rec.Messages
		if rec.Success {
			succ++
			rttSum += rec.DownloadRTT
		}
	}
	if got := float64(succ) / 200; got != res.SuccessRate {
		t.Fatalf("replayed success rate %v != streamed %v", got, res.SuccessRate)
	}
	if got := float64(msgs) / 200; got != res.AvgMessagesPerQuery {
		t.Fatalf("replayed msgs/query %v != streamed %v", got, res.AvgMessagesPerQuery)
	}
	if succ > 0 {
		if got := rttSum / float64(succ); got != res.AvgDownloadRTTMs {
			t.Fatalf("replayed rtt %v != streamed %v", got, res.AvgDownloadRTTMs)
		}
	}
}

// TestGoldenMatchesTrialsPath proves the trial count's floor and the worker
// pool cannot move the golden numbers: Compare with Trials = 1 at eight
// workers is byte-identical to the default (Trials = 0, one worker per
// CPU), and a single trial renders without error bars.
func TestGoldenMatchesTrialsPath(t *testing.T) {
	o := goldenOptions()
	o.Trials = 1
	o.Workers = 8
	tc, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(goldenOptions(), Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := compareCapture(tc), compareCapture(cmp); got != want {
		t.Fatalf("Trials=1/Workers=8 differs from the default Compare:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, f := range []Figure{FigureDownloadDistance, FigureSearchTraffic, FigureSuccessRate} {
		for _, s := range tc.cmp.FigureSeries(figureKey[f]) {
			if s.HasErrs() {
				t.Fatalf("%s/%s: single trial must render without error bars", f, s.Name)
			}
		}
	}
}

// compareCapture renders everything a Comparison reports — the three figure
// tables and CSVs, the headline claims and every per-protocol estimate —
// with floats printed by %v, the shortest form that round-trips, so string
// equality is bit equality.
func compareCapture(c *Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== trials=%d\n", len(c.Sets[0].Trials))
	for _, f := range []Figure{FigureDownloadDistance, FigureSearchTraffic, FigureSuccessRate} {
		fmt.Fprintf(&b, "-- %s table\n%s-- %s csv\n%s", f, c.FigureTable(f), f, c.FigureCSV(f))
	}
	h := c.Headlines()
	fmt.Fprintf(&b, "-- headlines\ndistance=%v traffic=%v dicas=%v dicas-keys=%v\n",
		h.DistanceReduction, h.TrafficReductionVsFlooding, h.HitGainVsDicas, h.HitGainVsDicasKeys)
	b.WriteString("-- protocols\n")
	est := func(e Estimate) string { return fmt.Sprintf("%v±%v/%d", e.Mean, e.CI95(), e.N) }
	for _, s := range c.Sets {
		fmt.Fprintf(&b, "%s success=%s msgs/q=%s rtt=%s sameLoc=%s cacheHit=%s hops=%s ctl=%s kbits=%s cached=%s\n",
			s.Protocol, est(s.SuccessRate), est(s.AvgMessagesPerQuery), est(s.AvgDownloadRTTMs),
			est(s.SameLocalityRate), est(s.CacheHitRate), est(s.AvgHops),
			est(s.ControlMessages), est(s.ControlKbits), est(s.CachedFilenames))
	}
	return b.String()
}

// TestCompareMatchesParentCapture pins the collapse of the single-trial and
// the replicated comparison into one function.
// testdata/golden_compare_trials_200peers.txt was rendered by
// compareCapture's twin at the commit before the collapse: its trials=1
// section from the unreplicated Compare (a different code path then, with
// its own FigureSeries and Headlines), its trials=3 section from the
// replicated entry point. The one Compare must reproduce both byte for byte.
func TestCompareMatchesParentCapture(t *testing.T) {
	var b strings.Builder
	for _, trials := range []int{1, 3} {
		o := goldenOptions()
		o.Trials = trials
		cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(compareCapture(cmp))
	}
	path := filepath.Join("testdata", "golden_compare_trials_200peers.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading capture: %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("Compare drifted from the pre-collapse capture %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenRunJSON pins what `locaware run -json` prints: Run's result
// under churn-waves (so Phases is non-empty), encoded as cmd/locaware
// encodes it. The keys, their order and every value are the command's
// output contract; regenerate with -update only for a deliberate change.
func TestGoldenRunJSON(t *testing.T) {
	o := goldenOptions()
	sc, err := LoadScenario("churn-waves")
	if err != nil {
		t.Fatal(err)
	}
	o.Scenario = sc
	res, err := Run(o, ProtocolLocaware, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_run_json_churn_waves_200peers.json", b.String())
}

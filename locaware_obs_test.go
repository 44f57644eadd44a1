package locaware

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestObsDeterminismInert is the inertness lock of the observability
// layer: attaching an Observer must not move a single output byte of the
// golden table.
func TestObsDeterminismInert(t *testing.T) {
	// Golden path: instrumented Compare reproduces the golden bytes.
	o := goldenOptions()
	o.Observer = NewObserver()
	cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	got := "== fig3-search-traffic (messages/query)\n" +
		cmp.FigureTable(FigureSearchTraffic) +
		"== fig4-success-rate\n" +
		cmp.FigureTable(FigureSuccessRate)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_compare_200peers.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got != string(want) {
		t.Fatalf("instrumented Compare drifted from golden table:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Every instrumented run carries its snapshot, and the totals are
	// plausible: one submission counted per measured+warmup query.
	for _, set := range cmp.Sets {
		r := set.Trials[0]
		if r.Runtime == nil {
			t.Fatalf("%s: no Runtime snapshot under an Observer", r.Protocol)
		}
		if r.Runtime.Submitted != 300 {
			t.Fatalf("%s: runtime counted %d submissions, want 300 (100 warmup + 200 measured)", r.Protocol, r.Runtime.Submitted)
		}
		if len(r.Runtime.EventsByKind) == 0 || r.Runtime.EventsScheduled == 0 {
			t.Fatalf("%s: empty event-loop telemetry: %+v", r.Protocol, r.Runtime)
		}
	}

}

// TestObserverEndpoints locks the Observer's scrape surface: the full
// family catalog before any run, counted values after one, and the pprof
// handlers on the same mux.
func TestObserverEndpoints(t *testing.T) {
	obs := NewObserver()
	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	read := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := read("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics answered %d", code)
	}
	for _, fam := range []string{
		"sim_events_total", "sim_queue_depth_high_water", "sim_events_scheduled_total",
		"protocol_queries_submitted_total", "protocol_cache_hits_total",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Fatalf("pre-run catalog missing %s:\n%s", fam, body)
		}
	}

	o := goldenOptions()
	o.Peers = 60
	o.Observer = obs
	if _, err := Run(o, ProtocolLocaware, 20, 50); err != nil {
		t.Fatal(err)
	}
	_, body = read("/metrics")
	if !strings.Contains(body, "protocol_queries_submitted_total 70\n") {
		t.Fatalf("post-run /metrics missing submission count:\n%s", body)
	}
	var sb strings.Builder
	if err := obs.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != body {
		t.Fatal("WriteMetrics and /metrics render different bytes")
	}

	if code, _ := read("/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap answered %d", code)
	}

	// The run report renders and mentions the load-bearing sections.
	res, err := Run(o, ProtocolLocaware, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Runtime.Report()
	for _, want := range []string{"event loop", "queries submitted", "events by kind", "pool free lists"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Report() missing %q:\n%s", want, text)
		}
	}
}

// TestGoldenObsReport locks the observability output byte for byte: the
// -stats report of trial 0 per protocol and the Observer's Prometheus dump
// after the golden comparison. Every value repeats for a seed — event
// counts, high-water marks and end-of-run pool occupancy included — so a
// refactor of how a run counts must reproduce the file exactly; a change
// that legitimately moves a count (a protocol or pooling change) regenerates
// it with `go test -run TestGoldenObsReport -update .` and justifies the diff.
func TestGoldenObsReport(t *testing.T) {
	o := goldenOptions()
	o.Observer = NewObserver()
	cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, set := range cmp.Sets {
		fmt.Fprintf(&sb, "== %s\n%s", set.Protocol, set.Trials[0].Runtime.Report())
	}
	sb.WriteString("== metrics\n")
	if err := o.Observer.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_obs_200peers.txt", sb.String())
}

// scrapeText renders an Observer's Prometheus dump. It reports a failed
// write with t.Error, so a scraping goroutine may call it.
func scrapeText(t *testing.T, o *Observer) string {
	var sb strings.Builder
	if err := o.WriteMetrics(&sb); err != nil {
		t.Error(err)
	}
	return sb.String()
}

// scrape parses an Observer's Prometheus dump into series → value.
func scrape(t *testing.T, o *Observer) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, line := range strings.Split(scrapeText(t, o), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestSharedObserverSumsRuns is the shared-registry lock: one Observer under
// a 2-worker sweep ends with every counter equal to the sum, and every gauge
// to the maximum, of what the campaign's runs counted one by one. A sweep
// keeps no per-run snapshot, so the runs are taken again as the standalone
// Compare each cell is documented to equal, each under its own Observer.
func TestSharedObserverSumsRuns(t *testing.T) {
	caches := []float64{5, 50}
	sw, err := ParseSweep([]byte(`{
		"name": "shared-obs", "warmup": 30, "queries": 90, "trials": 2,
		"protocols": ["Dicas", "Locaware"],
		"base": {"peers": 60},
		"axes": [{"param": "cache-filenames", "values": [5, 50]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	shared := sweepOptions()
	shared.Workers = 2
	shared.Observer = NewObserver()
	res, err := RunSweep(shared, sw)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]uint64{}
	sum := func(series string, v uint64) { want[series] += v }
	peak := func(series string, v uint64) { want[series] = max(want[series], v) }
	for cell, c := range caches {
		o := sweepOptions()
		o.Peers = 60
		o.CacheFilenames = int(c)
		o.Trials = sw.Trials()
		o.Observer = NewObserver()
		if o.Seed, err = res.CellSeed(cell); err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(o, sw.Protocols(), sw.Warmup(), sw.Queries(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range cmp.Sets {
			for _, r := range set.Trials {
				rs := r.Runtime
				for k, n := range rs.EventsByKind {
					sum(`sim_events_total{kind="`+k+`"}`, n)
				}
				sum("sim_events_scheduled_total", rs.EventsScheduled)
				peak("sim_queue_depth_high_water", rs.QueueDepthHighWater)
				sum("protocol_queries_submitted_total", rs.Submitted)
				sum("protocol_queries_finalized_total", rs.Finalized)
				sum("protocol_cache_hits_total", rs.CacheHits)
				sum("protocol_cache_misses_total", rs.CacheMisses)
				sum("protocol_storage_hits_total", rs.StorageHits)
				peak("protocol_pending_queries_high_water", rs.PendingHighWater)
				for p, n := range rs.PoolFree {
					peak(`protocol_pool_free{pool="`+p+`"}`, n)
				}
				sum(`protocol_forwards_total{tier="bloom"}`, r.BloomForwards)
				sum(`protocol_forwards_total{tier="gid"}`, r.GidForwards)
				sum(`protocol_forwards_total{tier="fallback"}`, r.FallbackForwards)
				sum(`protocol_forwards_total{tier="flood"}`, r.FloodForwards)
				sum("protocol_control_messages_total", r.ControlMessages)
				sum("protocol_control_bits_total", uint64(math.Round(r.ControlKbits*1000)))
				sum("protocol_stale_bloom_fallbacks_total", rs.StaleBloomFallbacks)
			}
		}
	}
	if got := scrape(t, shared.Observer); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared registry is not the sum of its runs:\n got %v\nwant %v", got, want)
	}
	if want["protocol_queries_submitted_total"] != uint64(res.Runs()*(sw.Warmup()+sw.Queries())) {
		t.Fatalf("runs counted %d submissions, want %d runs x %d queries",
			want["protocol_queries_submitted_total"], res.Runs(), sw.Warmup()+sw.Queries())
	}
}

// TestObserverScrapesDuringSweep scrapes one Observer in a loop while a
// 2-worker sweep adds its runs to it: under -race this is the lock on the
// registry's concurrent Add and WritePrometheus. Every scrape must render
// the whole catalogue, and the last one the sweep's full submission count.
func TestObserverScrapesDuringSweep(t *testing.T) {
	sw, err := ParseSweep([]byte(`{
		"name": "scrape", "warmup": 10, "queries": 40, "trials": 2,
		"protocols": ["Flooding", "Locaware"],
		"base": {"peers": 60},
		"axes": [{"param": "ttl", "values": [3, 5]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	o := sweepOptions()
	o.Workers = 2
	o.Observer = NewObserver()
	families := strings.Count(scrapeText(t, o.Observer), "# TYPE ")

	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
			if got := strings.Count(scrapeText(t, o.Observer), "# TYPE "); got != families {
				t.Errorf("a scrape during the sweep rendered %d families, want %d", got, families)
			}
			n++
		}
	}()
	res, err := RunSweep(o, sw)
	close(done)
	if n := <-scrapes; n == 0 {
		t.Error("no scrape ran during the sweep")
	}
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(res.Runs() * (sw.Warmup() + sw.Queries()))
	if got := scrape(t, o.Observer)["protocol_queries_submitted_total"]; got != want {
		t.Fatalf("after the sweep the Observer counted %d submissions, want %d", got, want)
	}
}

package locaware

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

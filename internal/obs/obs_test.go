package obs

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func wantLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(out, "\n"+l+"\n") {
			t.Fatalf("output missing %q:\n%s", l, out)
		}
	}
}

// TestCounterGauge: counters add across runs, gauges keep the maximum, in
// plain and labelled families alike.
func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Stats{Submitted: 1, QueueDepthHighWater: 7,
		EventsByKind: map[string]uint64{"query-submit": 1}, PoolFree: map[string]uint64{"pending": 5}})
	reg.Add(Stats{Submitted: 4, QueueDepthHighWater: 3,
		EventsByKind: map[string]uint64{"query-submit": 2}, PoolFree: map[string]uint64{"pending": 2}})
	wantLines(t, render(t, reg),
		"protocol_queries_submitted_total 5",
		"sim_queue_depth_high_water 7",
		`sim_events_total{kind="query-submit"} 3`,
		`protocol_pool_free{pool="pending"} 5`,
	)
	reg.Add(Stats{QueueDepthHighWater: 11})
	wantLines(t, render(t, reg), "protocol_queries_submitted_total 5", "sim_queue_depth_high_water 11")
}

// TestWritePrometheus: the full catalogue renders before the first Add
// (plain families at 0, labelled ones with no series), families in name
// order, and a labelled family's series are the union of every run's
// labels in sorted order.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	before := render(t, reg)
	var names []string
	for _, f := range families {
		names = append(names, f.name)
		wantLines(t, "\n"+before, "# HELP "+f.name+" "+f.help, "# TYPE "+f.name+" "+f.kind)
		if f.label == "" {
			wantLines(t, before, f.name+" 0")
		} else if strings.Contains(before, f.name+"{") {
			t.Fatalf("%s has a series before any run:\n%s", f.name, before)
		}
	}
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("family table is not sorted by unique name: %v", names)
	}

	reg.Add(Stats{ForwardsByTier: map[string]uint64{"gid": 2, "bloom": 1}})
	reg.Add(Stats{ForwardsByTier: map[string]uint64{"flood": 4, "bloom": 3}})
	out := render(t, reg)
	want := "# TYPE protocol_forwards_total counter\n" +
		`protocol_forwards_total{tier="bloom"} 4` + "\n" +
		`protocol_forwards_total{tier="flood"} 4` + "\n" +
		`protocol_forwards_total{tier="gid"} 2` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("labelled series not the sorted union of the runs':\n%s", out)
	}
	if strings.Index(out, "protocol_cache_hits_total") > strings.Index(out, "sim_queue_depth_high_water") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

// TestHandlerServesMetricsAndPprof fetches /metrics and the pprof heap
// page, and matches every pprof route's pattern without fetching it: the
// profile and trace routes would record for 30 s.
func TestHandlerServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Stats{CacheHits: 1})
	h := Handler(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":          "protocol_cache_hits_total 1",
		"/debug/pprof/heap": "", // just must answer 200
	} {
		resp, err := srv.Client().Get(srv.URL + path + "?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Fatalf("%s missing %q:\n%s", path, want, body[:n])
		}
		if ct := resp.Header.Get("Content-Type"); path == "/metrics" && ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Fatalf("/metrics Content-Type %q, want the Prometheus text format's", ct)
		}
	}
	for _, route := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"} {
		if _, pattern := h.(*http.ServeMux).Handler(httptest.NewRequest("GET", route, nil)); pattern != route {
			t.Errorf("%s is served by pattern %q, want its own route", route, pattern)
		}
	}
}

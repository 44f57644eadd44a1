package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("c_total", "ignored"); again.Value() != 5 {
		t.Fatal("re-registration did not return the same series")
	}

	g := reg.Gauge("g", "a gauge")
	g.SetMax(7)
	g.SetMax(3) // lower: no-op
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax = %d, want 11", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total", "last family").Add(2)
	reg.CounterVec("a_total", "by kind", "kind").With("x").Add(3)
	reg.Gauge("b", "a gauge").SetMax(4)
	reg.CounterVec("empty_total", "no series yet", "kind")

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		"# HELP a_total by kind",
		"# TYPE a_total counter",
		`a_total{kind="x"} 3`,
		"b 4",
		"# TYPE empty_total counter", // series-less family still advertised
		"z_total 2",
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Fatalf("output missing %q:\n%s", l, out)
		}
	}
	// Families must be sorted: a_total before z_total.
	if strings.Index(out, "a_total") > strings.Index(out, "z_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestHandlerServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "hits").Add(1)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":          "hits_total 1",
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
	}
}

func TestRateEWMA(t *testing.T) {
	r := NewRateEWMA(10 * time.Second)
	t0 := time.Unix(1000, 0)
	r.Observe(0, t0)
	if r.Rate() != 0 {
		t.Fatal("rate before second sample should be 0")
	}
	// 2 items/sec sustained for several half-lives converges near 2.
	for i := 1; i <= 12; i++ {
		r.Observe(float64(2*5*i), t0.Add(time.Duration(i)*5*time.Second))
	}
	if rate := r.Rate(); rate < 1.5 || rate > 2.5 {
		t.Fatalf("rate = %g, want ~2", rate)
	}
	eta, ok := r.ETA(20)
	if !ok {
		t.Fatal("ETA unavailable despite positive rate")
	}
	if eta < 5*time.Second || eta > 15*time.Second {
		t.Fatalf("ETA = %v, want ~10s", eta)
	}
	if _, ok := NewRateEWMA(0).ETA(5); ok {
		t.Fatal("ETA from unprimed tracker should be unavailable")
	}
}

package campaign

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestCampaignObsEndToEnd drives an instrumented distributed campaign over
// loopback HTTP and checks every observability surface: the pre-run
// /metrics catalog, worker counter-delta absorption, /status worker rows
// with uptime, the pprof endpoints — and that the campaign bytes stay
// golden with instrumentation on at both ends.
func TestCampaignObsEndToEnd(t *testing.T) {
	base := core.DefaultConfig()
	golden := goldenCSV(t)

	coordReg := obs.NewRegistry()
	coord, err := NewCoordinator(base, tinySpec(), Options{
		Poll: 10 * time.Millisecond,
		Obs:  coordReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The full catalog — campaign, event-loop and protocol families — is
	// scrapeable before any worker has reported in.
	code, body := httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics answered %d before first result", code)
	}
	for _, fam := range []string{
		MetricCells, MetricCellsDone, MetricCellsLeased, MetricWorkersLive,
		MetricCellsExecuted, MetricLeasesIssued, MetricUptime,
		sim.MetricEvents, sim.MetricScheduled,
		protocol.MetricSubmitted, protocol.MetricCacheHits,
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Fatalf("pre-run /metrics missing family %s:\n%s", fam, body)
		}
	}

	workerReg := obs.NewRegistry()
	w, err := NewWorker(base, tinySpec(), srv.URL, 1, Options{
		Poll: 10 * time.Millisecond,
		Obs:  workerReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	n, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("worker executed %d cells, want 4", n)
	}

	// Instrumentation at both ends must not move a single byte.
	if got := coord.Campaign().CSV(); got != golden {
		t.Fatalf("instrumented campaign CSV drifted from golden:\n%s", got)
	}

	// The coordinator absorbed the accepted results' deltas, so its
	// protocol counters equal the single worker's totals.
	for _, name := range []string{protocol.MetricSubmitted, protocol.MetricFinalized, protocol.MetricCacheMisses} {
		want := workerReg.Counter(name, "").Value()
		got := coordReg.Counter(name, "").Value()
		if want == 0 {
			t.Fatalf("worker registry has zero %s; the absorption check is vacuous", name)
		}
		if got != want {
			t.Fatalf("%s: coordinator absorbed %d, worker counted %d", name, got, want)
		}
	}
	if got := coordReg.Counter(MetricCellsExecuted, "").Value(); got != 4 {
		t.Fatalf("campaign_cells_executed_total = %d, want 4", got)
	}
	if got := coordReg.Counter(MetricLeasesIssued, "").Value(); got != 4 {
		t.Fatalf("campaign_leases_issued_total = %d, want 4", got)
	}

	code, body = httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics answered %d", code)
	}
	if !strings.Contains(body, MetricCellsExecuted+" 4\n") {
		t.Fatalf("/metrics missing executed count:\n%s", body)
	}
	if !strings.Contains(body, MetricCellsDone+" 4\n") {
		t.Fatalf("/metrics missing done gauge:\n%s", body)
	}

	// /status carries uptime and the per-worker liveness/expiry table.
	code, body = httpGet(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status answered %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Done != 4 {
		t.Fatalf("status: %+v", st)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("status uptime %v, want > 0", st.UptimeSeconds)
	}
	if len(st.Workers) != 1 {
		t.Fatalf("status lists %d workers, want 1: %+v", len(st.Workers), st.Workers)
	}
	ws := st.Workers[0]
	if ws.ID != w.ID() || ws.Cells != 4 || ws.Expired != 0 || ws.LastSeenSecs < 0 {
		t.Fatalf("worker status row: %+v", ws)
	}

	// The pprof surface rides on the same mux.
	code, _ = httpGet(t, srv.URL+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap answered %d", code)
	}
}

// TestCoordinatorTracksLeaseExpiry locks the per-worker expiry counter
// behind /status and the reissue counter metric.
func TestCoordinatorTracksLeaseExpiry(t *testing.T) {
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(core.DefaultConfig(), tinySpec(), Options{
		LeaseTimeout: 10 * time.Millisecond,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply := coord.lease("slow-worker"); reply.Job == nil {
		t.Fatalf("lease: %+v", reply)
	}
	time.Sleep(20 * time.Millisecond)
	st := coord.Status() // reaps
	if st.Reissued != 1 {
		t.Fatalf("reissued = %d, want 1", st.Reissued)
	}
	if got := reg.Counter(MetricLeasesReissued, "").Value(); got != 1 {
		t.Fatalf("campaign_leases_reissued_total = %d, want 1", got)
	}
	if len(st.Workers) != 1 || st.Workers[0].Expired != 1 {
		t.Fatalf("worker expiry row: %+v", st.Workers)
	}
}

// TestRunProgressAndObsByteIdentity checks the in-process resumable
// runner under an attached registry and a progress ticker still produces
// golden bytes, and that its instrumentation actually counted the runs.
func TestRunProgressAndObsByteIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	core.RegisterObsFamilies(reg)
	var lines []string
	camp, stats, err := Run(core.DefaultConfig(), tinySpec(), 2, Options{
		Obs:      reg,
		Progress: 5 * time.Millisecond,
		Logf: func(format string, args ...any) {
			lines = append(lines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 {
		t.Fatalf("executed %d cells, want 4", stats.Executed)
	}
	if got := camp.CSV(); got != goldenCSV(t) {
		t.Fatalf("instrumented in-process campaign drifted from golden:\n%s", got)
	}
	if got := reg.Counter(protocol.MetricSubmitted, "").Value(); got == 0 {
		t.Fatal("registry counted no submitted queries across the campaign")
	}
	_ = lines // progress lines are timing-dependent; their absence is not a failure
}

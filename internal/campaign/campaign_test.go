package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/stats"
	"github.com/p2prepro/locaware/internal/sweep"
)

// tinySpec mirrors the sweep package's golden fixture: a 2x2 grid, two
// protocols, two trials — 4 cells whose uninterrupted CSV is recorded in
// ../sweep/testdata/golden_sweep_2x2x2.csv.
func tinySpec() *sweep.Spec {
	return &sweep.Spec{
		Name:      "tiny",
		Warmup:    40,
		Queries:   120,
		Trials:    2,
		Protocols: []string{"Dicas", "Locaware"},
		Scenario:  "churn-waves",
		Axes: []sweep.Axis{
			{Param: sweep.ParamPeers, Values: []float64{60, 90}},
			{Param: sweep.ParamCacheFilenames, Values: []float64{5, 50}},
		},
	}
}

func goldenCSV(t testing.TB) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "golden_sweep_2x2x2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func tinyPlan(t testing.TB) *sweep.Plan {
	t.Helper()
	p, err := sweep.NewPlan(core.DefaultConfig(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreRoundTrip(t *testing.T) {
	plan := tinyPlan(t)
	store, err := OpenStore(t.TempDir(), plan.Hash())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := plan.RunCellAt(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(cr); err != nil {
		t.Fatal(err)
	}
	// Overwrite must be idempotent (a reissued lease may checkpoint twice).
	if err := store.Put(cr); err != nil {
		t.Fatal(err)
	}
	loaded, warnings, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d cells, want 1", len(loaded))
	}
	got, ok := loaded[0]
	if !ok {
		t.Fatal("cell 0 missing from load")
	}
	// The JSON round trip must preserve every bit — floats included — or
	// resumed campaigns could not be byte-identical.
	if !reflect.DeepEqual(*got, *cr) {
		t.Fatalf("checkpoint round trip drifted:\nput:    %+v\nloaded: %+v", *cr, *got)
	}
	// No stray temp files after committed writes.
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
}

// TestRunResumeByteIdentity is the kill-and-resume contract: a campaign
// interrupted after a subset of cells, then resumed, executes only the
// missing cells (locked by the Executed run counter) and produces output
// byte-identical to the uninterrupted golden CSV.
func TestRunResumeByteIdentity(t *testing.T) {
	base := core.DefaultConfig()
	golden := goldenCSV(t)
	dir := t.TempDir()

	// Simulate the interrupted first run: cells 0 and 2 finished and were
	// checkpointed, then the process died.
	plan := tinyPlan(t)
	store, err := OpenStore(dir, plan.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.RunCells([]int{0, 2}, 4, func(cr *sweep.CellResult) {
		if err := store.Put(cr); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Resume: only cells 1 and 3 may execute.
	camp, stats, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 2 {
		t.Fatalf("resumed %d cells, want 2", stats.Resumed)
	}
	if stats.Executed != 2 {
		t.Fatalf("executed %d cells, want exactly the 2 missing ones", stats.Executed)
	}
	if got := camp.CSV(); got != golden {
		t.Fatalf("resumed campaign CSV differs from uninterrupted golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}

	// A second resume finds everything checkpointed and computes nothing.
	camp2, stats2, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != 4 || stats2.Executed != 0 {
		t.Fatalf("full resume: resumed %d executed %d, want 4/0", stats2.Resumed, stats2.Executed)
	}
	if camp2.CSV() != golden {
		t.Fatal("fully resumed campaign CSV differs from golden")
	}

	// Resume disabled: checkpoints are ignored and every cell recomputes.
	_, stats3, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir, Resume: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Resumed != 0 || stats3.Executed != 4 {
		t.Fatalf("resume disabled: resumed %d executed %d, want 0/4", stats3.Resumed, stats3.Executed)
	}
}

// TestRunSurvivesDamagedCheckpoints damages three of four checkpoint
// files — truncation, garbage, a foreign campaign hash — and asserts the
// campaign reports each, re-runs exactly those cells, and still renders
// the golden bytes.
func TestRunSurvivesDamagedCheckpoints(t *testing.T) {
	base := core.DefaultConfig()
	golden := goldenCSV(t)
	dir := t.TempDir()

	if _, _, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	plan := tinyPlan(t)
	store, err := OpenStore(dir, plan.Hash())
	if err != nil {
		t.Fatal(err)
	}

	// Cell 0: truncated mid-document (simulates a torn write on a
	// filesystem without atomic rename semantics).
	data, err := os.ReadFile(store.Path(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(0), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Cell 1: not JSON at all.
	if err := os.WriteFile(store.Path(1), []byte("{this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Cell 2: well-formed but from a different campaign.
	foreign := fmt.Sprintf(`{"version":%d,"spec_hash":"deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef","cell":{"index":2}}`, checkpointVersion)
	if err := os.WriteFile(store.Path(2), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	// Cell 3 stays valid.

	camp, stats, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 {
		t.Fatalf("resumed %d cells, want only the intact cell 3", stats.Resumed)
	}
	if stats.Executed != 3 {
		t.Fatalf("executed %d cells, want the 3 damaged ones", stats.Executed)
	}
	if len(stats.Warnings) < 3 {
		t.Fatalf("want >= 3 damage warnings, got %v", stats.Warnings)
	}
	for i, substr := range map[int]string{0: "corrupted or truncated", 1: "corrupted or truncated", 2: "belongs to campaign"} {
		found := false
		name := filepath.Base(store.Path(i))
		for _, w := range stats.Warnings {
			if strings.Contains(w, name) && strings.Contains(w, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no warning matching %q for %s in %v", substr, name, stats.Warnings)
		}
	}
	if camp.CSV() != golden {
		t.Fatal("campaign with damaged checkpoints drifted from golden CSV")
	}

	// The recovery run rewrote valid checkpoints: the next resume is total.
	_, stats2, err := Run(base, tinySpec(), 4, Options{Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != 4 || stats2.Executed != 0 || len(stats2.Warnings) != 0 {
		t.Fatalf("post-recovery resume: resumed %d executed %d warnings %v, want 4/0/none",
			stats2.Resumed, stats2.Executed, stats2.Warnings)
	}
}

// TestStoreRejectsWrongVersion covers the format-version gate separately
// since Run-level tests can't produce a future version.
func TestStoreRejectsWrongVersion(t *testing.T) {
	plan := tinyPlan(t)
	store, err := OpenStore(t.TempDir(), plan.Hash())
	if err != nil {
		t.Fatal(err)
	}
	doc := `{"version":99,"spec_hash":"` + plan.Hash() + `","cell":{"index":0}}`
	if err := os.WriteFile(store.Path(0), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cells, warnings, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatal("future-version checkpoint must not load")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "format version 99") {
		t.Fatalf("want a version warning, got %v", warnings)
	}
}

// TestCheckpointShapeGolden pins the on-disk shape of one checkpoint file
// to the format version. Store.Load decodes without DisallowUnknownFields,
// so a renamed or added field would half-decode an old file into zeroes
// instead of failing; the version gate is what prevents that, and this
// golden is what keeps the gate honest. If this test fails, do not edit
// testdata/cell_v<N>.json: bump checkpointVersion and commit the new shape
// as cell_v<N+1>.json beside it.
func TestCheckpointShapeGolden(t *testing.T) {
	sum := func(mean float64) stats.Summary {
		return stats.Summary{N: 2, Mean: mean, StdDev: 0.25, Min: mean - 0.5, Max: mean + 0.5}
	}
	window := func(name string, start, end int) metrics.PhaseStats {
		return metrics.PhaseStats{
			Name: name, Start: start, End: end, Queries: sum(float64(end - start)),
			DownloadRTT: sum(120.5), MessagesPerQuery: sum(30), SuccessRate: sum(0.5),
			SameLocalityRate: sum(0.25), CacheHitRate: sum(0.125), AvgHops: sum(3),
		}
	}
	cr := &sweep.CellResult{
		Cell: sweep.Cell{Index: 7, Seed: -42, Coords: []sweep.Coordinate{
			{Param: sweep.ParamPeers, Value: 60},
			{Param: sweep.ParamScenario, Scenario: "churn-waves"},
		}},
		Protocols: []sweep.ProtocolCell{{
			Protocol: "Locaware",
			Summary: core.TrialSummary{
				PhaseStats:      window("", 0, 120),
				ControlMessages: sum(900), ControlKbits: sum(1080), CachedFilenames: sum(71.5),
			},
			Phases: []metrics.PhaseStats{window("calm", 0, 30), window("wave", 30, 120)},
		}},
		Exemplar: &sweep.ExemplarTrace{
			Protocol: "Locaware", Trial: 1, Query: 17, LatencySeconds: 1.5, Failed: true, Hops: 7,
			Rendered: "submit@0.000s\n",
		},
	}
	store, err := OpenStore(t.TempDir(), "0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(cr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(store.Path(cr.Index))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fmt.Sprintf("cell_v%d.json", checkpointVersion))
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden for checkpoint format version %d: %v", checkpointVersion, err)
	}
	if string(got) != string(want) {
		t.Fatalf("checkpoint shape changed without a version bump (see the comment on this test)\ngot:  %s\nwant: %s", got, want)
	}
}

// TestJobCodec locks the worker's half of the wire format on the live
// decode path: a leased job survives the trip field for field, and a reply
// carrying a field this build does not know — protocol drift between
// coordinator and worker builds — ends the worker with an error naming the
// field instead of half-decoding into a plausible job.
func TestJobCodec(t *testing.T) {
	// workerFor returns a worker whose coordinator answers every request
	// with body.
	workerFor := func(body string) *Worker {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		w, err := NewWorker(core.DefaultConfig(), tinySpec(), srv.URL, 1, Options{Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	job := &Job{SpecHash: "abc", Cell: 3, Seed: -42, Protocols: []string{"Dicas", "Locaware"}, Trials: 2}
	data, err := json.Marshal(LeaseReply{Job: job, LeaseMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := workerFor(string(data)).lease()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reply.Job, job) || reply.LeaseMs != 5 {
		t.Fatalf("job round trip drifted: %+v vs %+v", reply.Job, job)
	}

	n, err := workerFor(`{"job":{"spec_hash":"x","cell":0,"surprise":true}}`).Run(context.Background())
	if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), `"surprise"`) || n != 0 {
		t.Fatalf("lease with an unknown job field: n=%d err=%v, want a protocol error naming it", n, err)
	}
	_, err = workerFor(`{"ok":true,"astonishment":1}`).post(&sweep.CellResult{}, nil)
	if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), `"astonishment"`) {
		t.Fatalf("result reply with an unknown field: err=%v, want a protocol error naming it", err)
	}
	// A reply cut short is not drift: it stays retryable.
	if _, err := workerFor(`{"job":{"spec_hash":"x"`).lease(); err == nil || errors.Is(err, errProtocol) {
		t.Fatalf("truncated lease reply: err=%v, want a plain retryable error", err)
	}
}

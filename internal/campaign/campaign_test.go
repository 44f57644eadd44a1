package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
			{Param: "cache-filenames", Values: []float64{5, 50}},
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
	dir := t.TempDir()
	store, err := OpenStore(dir, plan.Hash())
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
	// Overwrite must be idempotent (-resume=false re-runs over existing files).
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
	entries, err := os.ReadDir(dir)
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

// TestResumeAfterByteFlips damages one checkpoint file a byte at a time —
// a seeded sample of positions with random bit flips, plus the one-digit
// edit of a mean that stays valid JSON — and resumes after each: the
// resume either skips the cell, naming its file, or exports a CSV
// byte-identical to the in-process run. A damaged value is never merged.
func TestResumeAfterByteFlips(t *testing.T) {
	base := core.DefaultConfig()
	golden := goldenCSV(t)
	dir := t.TempDir()
	if _, _, err := Run(base, tinySpec(), 2, Options{Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(dir, tinyPlan(t).Hash())
	if err != nil {
		t.Fatal(err)
	}
	path := store.Path(1)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(18))
	type flip struct {
		at   int
		mask byte
	}
	// The one-digit edit: "Mean":0.5625 becomes 0.5626.
	edit := bytes.Index(intact, []byte(`"Mean":0.5625`))
	if edit < 0 {
		t.Fatal(`cell 1's checkpoint has no "Mean":0.5625 to edit`)
	}
	flips := []flip{{edit + len(`"Mean":0.5625`) - 1, '5' ^ '6'}}
	for range 40 {
		flips = append(flips, flip{r.Intn(len(intact)), byte(1 << r.Intn(8))})
	}
	skipped := 0
	for _, f := range flips {
		data := bytes.Clone(intact)
		data[f.at] ^= f.mask
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		camp, stats, err := Run(base, tinySpec(), 2, Options{Checkpoint: dir, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case stats.Resumed == 3 && len(stats.Warnings) == 1 && strings.Contains(stats.Warnings[0], filepath.Base(path)):
			skipped++
		case stats.Resumed == 4 && len(stats.Warnings) == 0:
		default:
			t.Fatalf("byte %d ^ %#x: resumed %d, warnings %q; want the cell skipped with one warning naming it, or resumed", f.at, f.mask, stats.Resumed, stats.Warnings)
		}
		if camp.CSV() != golden {
			t.Fatalf("byte %d ^ %#x (%q): resumed %d cells and the CSV drifted from the in-process run", f.at, f.mask, data[max(0, f.at-20):min(len(data), f.at+20)], stats.Resumed)
		}
	}
	t.Logf("%d of %d flips skipped, the rest resumed byte-identical", skipped, len(flips))
	if skipped < len(flips)/2 {
		t.Fatalf("only %d of %d flips were caught as damage", skipped, len(flips))
	}
}

// TestRunSurvivesCheckpointWriteFailure makes one cell's checkpoint
// uncommittable — a non-empty directory squats on its file name, so the
// rename fails even for root — and asserts the documented policy: the
// failure is one warning naming the cell, the cell still folds, the
// campaign completes with the golden bytes, and a later resume recomputes
// exactly that cell.
func TestRunSurvivesCheckpointWriteFailure(t *testing.T) {
	base := core.DefaultConfig()
	dir := t.TempDir()
	store, err := OpenStore(dir, tinyPlan(t).Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(store.Path(1), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logged []string
	opt := Options{Checkpoint: dir, Resume: true, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}}
	camp, stats, err := Run(base, tinySpec(), 2, opt)
	if err != nil {
		t.Fatalf("a failed checkpoint write failed the campaign: %v", err)
	}
	if camp == nil || camp.CSV() != goldenCSV(t) {
		t.Fatal("campaign with an unwritable checkpoint drifted from golden CSV")
	}
	if stats.Resumed+stats.Executed != stats.Cells || stats.Executed != 4 {
		t.Fatalf("stats do not cover the grid: %+v", stats)
	}
	if len(stats.Warnings) != 1 || !strings.Contains(stats.Warnings[0], "checkpointing cell 1 failed") {
		t.Fatalf("want one warning naming cell 1, got %v", stats.Warnings)
	}
	if !strings.Contains(strings.Join(logged, "\n"), stats.Warnings[0]) {
		t.Fatalf("warning not logged: %q", logged)
	}
	for _, i := range []int{0, 2, 3} {
		if fi, err := os.Stat(store.Path(i)); err != nil || !fi.Mode().IsRegular() {
			t.Fatalf("checkpoint for cell %d missing after a neighbour's write failed: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed write leaked temp file %s", e.Name())
		}
	}

	// The obstacle is still there: a re-run resumes the three durable cells
	// and recomputes exactly the one whose file is missing.
	camp2, stats2, err := Run(base, tinySpec(), 2, Options{Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != 3 || stats2.Executed != 1 || len(stats2.Warnings) != 1 {
		t.Fatalf("re-run after a failed write: %+v, want 3 resumed, 1 executed, 1 warning", stats2)
	}
	if camp2.CSV() != goldenCSV(t) {
		t.Fatal("re-run after a failed write drifted from golden CSV")
	}
}

// TestStoreRejectsWrongVersion covers the format-version gate separately
// since Run-level tests can't produce another version: a future one, and
// the committed golden of every earlier one (a checkpoint an older build
// left behind), must be skipped with a warning naming the version.
func TestStoreRejectsWrongVersion(t *testing.T) {
	plan := tinyPlan(t)
	docs := map[int][]byte{99: []byte(`{"version":99,"spec_hash":"` + plan.Hash() + `","cell":{"index":0}}`)}
	for v := 2; v < checkpointVersion; v++ {
		data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("cell_v%d.json", v)))
		if err != nil {
			t.Fatal(err)
		}
		docs[v] = data
	}
	for v, doc := range docs {
		store, err := OpenStore(t.TempDir(), plan.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.Path(0), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		cells, warnings, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 0 {
			t.Fatalf("version %d checkpoint must not load", v)
		}
		if len(warnings) != 1 || !strings.Contains(warnings[0], fmt.Sprintf("format version %d", v)) {
			t.Fatalf("version %d: want a version warning, got %v", v, warnings)
		}
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
			Phase: name, Start: start, End: end, Queries: sum(float64(end - start)),
			AvgDownloadRTTMs: sum(120.5), AvgMessagesPerQuery: sum(30), SuccessRate: sum(0.5),
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

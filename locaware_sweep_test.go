package locaware

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepOptions is the shared sweep test base: accelerated arrivals so the
// grids stay fast.
func sweepOptions() Options {
	o := DefaultOptions()
	o.Seed = 1
	o.QueryRate = 0.01
	return o
}

func mustSweep(t *testing.T, name string) *Sweep {
	t.Helper()
	sw, err := SweepByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// tinyTestSweep shrinks a built-in campaign to test size: 2 trials, short
// runs. The axes and protocol set stay the built-in's.
func tinyTestSweep(t *testing.T, name string) *Sweep {
	t.Helper()
	return mustSweep(t, name).WithTrials(2).WithBudget(40, 120)
}

// TestSweepAcceptance locks the acceptance criterion end to end on a
// built-in campaign: the CSV and figure table are byte-identical at any
// worker count, and every cell equals a standalone RunTrials of the same
// configuration rooted at the cell's derived seed.
func TestSweepAcceptance(t *testing.T) {
	sw := tinyTestSweep(t, "cache-sweep")
	run := func(workers int) *SweepResult {
		o := sweepOptions()
		o.Workers = workers
		res, err := RunSweep(o, sw)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.CSV() != par.CSV() {
		t.Fatal("campaign CSV differs between 1 and 8 workers")
	}
	seqTable, err := seq.FigureTable("success", "")
	if err != nil {
		t.Fatal(err)
	}
	parTable, err := par.FigureTable("success", "")
	if err != nil {
		t.Fatal(err)
	}
	if seqTable != parTable {
		t.Fatal("figure table differs between 1 and 8 workers")
	}

	// Standalone equivalence: rebuild cell 3 (cache capacity 100, the
	// fourth axis value) as plain Options and run RunTrials at the cell's
	// derived seed — every estimate must match the campaign's exactly.
	const cell = 3
	o := sweepOptions()
	o.Peers = 500 // cache-sweep's base override
	o.CacheFilenames = 100
	o.Seed = par.campaign.Cells[cell].Seed
	o.Trials = 2
	for _, p := range sw.Protocols() {
		tr, err := RunTrials(o, p, sw.Warmup(), sw.Queries())
		if err != nil {
			t.Fatal(err)
		}
		for metric, want := range map[string]Estimate{
			"success":  tr.SuccessRate,
			"msgs":     tr.AvgMessagesPerQuery,
			"rtt":      tr.AvgDownloadRTTMs,
			"sameloc":  tr.SameLocalityRate,
			"cachehit": tr.CacheHitRate,
			"hops":     tr.AvgHops,
		} {
			got, err := par.CellEstimate(cell, p, metric)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %s: campaign %+v != standalone RunTrials %+v", p, metric, got, want)
			}
		}
	}
}

// TestSweepQueryRateCellEqualsCompare: a campaign that names query-rate, as
// an axis or as a base value, runs the world Options.QueryRate runs — the
// gossip period follows the rate on both paths — so the cell equals the
// standalone RunTrials down to the gossip traffic. The campaign's own base
// is the paper's rate, so the spec's value is the only thing accelerating it.
func TestSweepQueryRateCellEqualsCompare(t *testing.T) {
	for _, spec := range []string{
		`{"name": "rate-axis", "warmup": 100, "queries": 300, "protocols": ["Locaware"],
		  "base": {"peers": 150}, "axes": [{"param": "query-rate", "values": [0.01]}]}`,
		`{"name": "rate-base", "warmup": 100, "queries": 300, "protocols": ["Locaware"],
		  "base": {"query-rate": 0.01}, "axes": [{"param": "peers", "values": [150]}]}`,
	} {
		sw, err := ParseSweep([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.Seed = 5
		res, err := RunSweep(o, sw)
		if err != nil {
			t.Fatal(err)
		}
		o.Seed = res.campaign.Cells[0].Seed
		o.Peers = 150
		o.QueryRate = 0.01
		tr, err := RunTrials(o, ProtocolLocaware, sw.Warmup(), sw.Queries())
		if err != nil {
			t.Fatal(err)
		}
		for metric, want := range map[string]Estimate{
			"success":  tr.SuccessRate,
			"msgs":     tr.AvgMessagesPerQuery,
			"ctlkbits": tr.ControlKbits,
		} {
			got, err := res.CellEstimate(0, ProtocolLocaware, metric)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %s: campaign %+v != standalone RunTrials %+v", sw.Name(), metric, got, want)
			}
		}
	}
}

// TestSweepFromJSON drives the JSON path: a custom campaign parses, runs,
// and rejects malformed input loudly.
func TestSweepFromJSON(t *testing.T) {
	spec := `{
		"name": "custom",
		"protocols": ["Dicas", "Locaware"],
		"warmup": 30,
		"queries": 90,
		"trials": 2,
		"base": {"peers": 80},
		"scenario": "steady-churn",
		"axes": [
			{"param": "ttl", "values": [3, 7]},
			{"param": "scenario-intensity", "values": [0.5, 1]}
		]
	}`
	sw, err := ParseSweep([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if sw.NumCells() != 4 {
		t.Fatalf("2×2 grid reports %d cells", sw.NumCells())
	}
	res, err := RunSweep(sweepOptions(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCells() != 4 || res.Trials() != 2 || res.Runs() != 16 {
		t.Fatalf("campaign shape: cells=%d trials=%d runs=%d", res.NumCells(), res.Trials(), res.Runs())
	}
	if res.PhaseCSV() == "" {
		t.Fatal("scenario campaign must export a phase CSV")
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "cell,ttl,scenario-intensity,protocol,trials,") {
		t.Fatalf("tidy CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	// Header + 4 cells × 2 protocols rows.
	if got := strings.Count(strings.TrimSpace(csv), "\n"); got != 8 {
		t.Fatalf("tidy CSV has %d data rows, want 8", got)
	}

	if _, err := ParseSweep([]byte(`{"name":"x","queries":10,"axes":[{"param":"warp","values":[1]}]}`)); err == nil {
		t.Fatal("unknown axis parameter must be rejected")
	}
	if _, err := ParseSweep([]byte(`{"name":"x","queries":10,"axes":[{"param":"peers","values":[10]}],"oops":1}`)); err == nil {
		t.Fatal("unknown spec field must be rejected")
	}
}

// TestSweepOptionsLevel exercises the Options fallbacks (Trials when the
// spec leaves it unset, Seed as the campaign root) and that they resolve
// identically on every campaign entry point.
func TestSweepOptionsLevel(t *testing.T) {
	sw, err := ParseSweep([]byte(`{
		"name": "opt-level", "warmup": 20, "queries": 60,
		"protocols": ["Locaware"],
		"axes": [{"param": "peers", "values": [60, 90]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	o := sweepOptions()
	o.Trials = 2
	o.Seed = 7
	res, err := RunSweep(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials() != 2 {
		t.Fatalf("Options.Trials fallback ignored: trials=%d", res.Trials())
	}
	if res.Seed() != 7 {
		t.Fatalf("campaign root = %d, want Options.Seed 7", res.Seed())
	}
	if seed0 := res.campaign.Cells[0].Seed; seed0 != 7 {
		t.Fatalf("cell 0 seed = %d, want campaign root (identity)", seed0)
	}
	// One fallback for every entry point: spelling the trials out in the
	// spec runs the same campaign as leaving them to Options.
	o.Trials = 0
	ckpt, _, err := RunSweepCheckpointed(o, sw.WithTrials(2), CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.CSV() != res.CSV() {
		t.Fatal("Options-level trials ran a different campaign than spec-level trials")
	}
}

func TestSweepErrors(t *testing.T) {
	// A nil *Sweep is an error naming the argument, on every entry point.
	_, errRun := RunSweep(sweepOptions(), nil)
	_, _, errCkpt := RunSweepCheckpointed(sweepOptions(), nil, CampaignOptions{})
	_, errPrint := SweepFingerprint(sweepOptions(), nil)
	for _, err := range []error{errRun, errCkpt, errPrint} {
		if err == nil || !strings.Contains(err.Error(), "nil *Sweep") {
			t.Fatalf("nil sweep: got %v, want an error naming the *Sweep argument", err)
		}
	}
	if _, err := SweepByName("no-such-campaign"); err == nil {
		t.Fatal("unknown campaign name must error")
	}
	sw := mustSweep(t, "ttl-sweep")
	r, err := RunSweep(sweepOptions(), sw.WithTrials(1).WithBudget(10, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CellEstimate(99, ProtocolLocaware, "success"); err == nil {
		t.Fatal("out-of-range cell must error")
	}
	if _, err := r.CellEstimate(0, ProtocolLocaware, "nope"); err == nil {
		t.Fatal("unknown metric must error")
	}
	if _, err := r.CellEstimate(0, Protocol("Chord"), "success"); err == nil {
		t.Fatal("foreign protocol must error")
	}
	if _, err := r.FigureTable("success", "bloom-bits"); err == nil {
		t.Fatal("a parameter the campaign does not sweep must error as an axis")
	}
}

func TestSweepRegistry(t *testing.T) {
	names := SweepNames()
	if len(names) < 4 {
		t.Fatalf("want at least 4 built-in campaigns, have %v", names)
	}
	for _, name := range names {
		sw, err := SweepByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Description() == "" || sw.NumCells() < 2 {
			t.Fatalf("campaign %q underspecified", name)
		}
		data, err := json.Marshal(sw.spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSweep(data)
		if err != nil {
			t.Fatalf("builtin %q does not round-trip: %v", name, err)
		}
		if back.Name() != sw.Name() {
			t.Fatalf("round-trip renamed %q to %q", sw.Name(), back.Name())
		}
	}
}

// TestSweepWithBaseOverride locks the explicit-override path the CLI uses
// for -peers: a spec whose Base pins its own overlay size must yield to
// WithBase, and an unknown parameter must be rejected.
func TestSweepWithBaseOverride(t *testing.T) {
	sw := mustSweep(t, "cache-sweep").WithTrials(1).WithBudget(10, 40)
	small, err := sw.WithBase("peers", 60)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunSweep(sweepOptions(), sw)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := RunSweep(sweepOptions(), small)
	if err != nil {
		t.Fatal(err)
	}
	if big.CSV() == tiny.CSV() {
		t.Fatal("WithBase(peers) changed nothing — the spec's own Base override silently won")
	}
	if _, err := sw.WithBase("scenario", 1); err == nil {
		t.Fatal("non-numeric base parameter must be rejected")
	}
	// The source campaign must be untouched (copy-on-write).
	if _, err := RunSweep(sweepOptions(), sw); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSweepAndScenario exercises the shared name-or-JSON-file
// resolution both CLIs use.
func TestLoadSweepAndScenario(t *testing.T) {
	if sw, err := LoadSweep("ttl-sweep"); err != nil || sw.Name() != "ttl-sweep" {
		t.Fatalf("LoadSweep builtin: %v", err)
	}
	if _, err := LoadSweep("no-such-campaign"); err == nil {
		t.Fatal("unknown name without path characters must not hit the filesystem")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.json")
	spec := `{"name":"mini","queries":30,"warmup":10,"protocols":["Locaware"],"axes":[{"param":"peers","values":[50,70]}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := LoadSweep(path)
	if err != nil || sw.Name() != "mini" {
		t.Fatalf("LoadSweep file: %v", err)
	}
	if _, err := LoadSweep(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing spec file must error")
	}
	if sc, err := LoadScenario("flashcrowd"); err != nil || sc.Name() != "flashcrowd" {
		t.Fatalf("LoadScenario builtin: %v", err)
	}
	if _, err := LoadScenario(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing scenario file must error")
	}
}

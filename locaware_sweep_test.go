package locaware

import (
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
	// A spec's own trial count beats Options.Trials.
	if one, err := RunSweep(o, sw.WithTrials(1)); err != nil {
		t.Fatal(err)
	} else if one.Trials() != 1 {
		t.Fatalf("spec trials 1 under Options.Trials 2 ran %d trials", one.Trials())
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

// TestSweepOverridesStoreWhatTheyAreGiven: WithBudget and WithTrials
// replace the spec's counts with the explicit ones, never the spec's own
// back: a query count of 0 or a negative warmup is refused naming the
// value, where it used to run the spec's, and 0 trials runs one.
func TestSweepOverridesStoreWhatTheyAreGiven(t *testing.T) {
	sw, err := ParseSweep([]byte(`{"name":"o","warmup":300,"queries":1000,"trials":3,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"ttl","values":[5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sw   *Sweep
		want string
	}{{sw.WithBudget(10, 0), "queries 0"}, {sw.WithBudget(-5, 20), "warmup -5"}} {
		if _, err := RunSweep(sweepOptions(), tc.sw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want an error naming %q, got %v", tc.want, err)
		}
	}
	res, err := RunSweep(sweepOptions(), sw.WithTrials(0).WithBudget(0, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials() != 1 || res.Runs() != 1 {
		t.Fatalf("WithTrials(0) ran %d trials (%d runs), want 1", res.Trials(), res.Runs())
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

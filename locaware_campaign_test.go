package locaware

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSweepIsCheckpointedWithNoOptions locks the collapse of the two
// in-process sweep runners into one body: RunSweep and RunSweepCheckpointed
// with an empty CampaignOptions export the same bytes, and those bytes are
// the sweep engine's own 2×2×2 golden — the facade lowers DefaultOptions
// to exactly the base configuration that file was generated from.
func TestRunSweepIsCheckpointedWithNoOptions(t *testing.T) {
	sw, err := ParseSweep([]byte(`{
		"name": "tiny", "warmup": 40, "queries": 120, "trials": 2,
		"protocols": ["Dicas", "Locaware"], "scenario": "churn-waves",
		"axes": [{"param": "peers", "values": [60, 90]},
		         {"param": "cache-filenames", "values": [5, 50]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Workers = 4
	plain, err := RunSweep(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, stats, err := RunSweepCheckpointed(o, sw, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 || stats.Resumed != 0 {
		t.Fatalf("option-less run: %+v", stats)
	}
	if plain.PhaseCSV() == "" || plain.CSV()+plain.PhaseCSV() != ckpt.CSV()+ckpt.PhaseCSV() {
		t.Fatal("RunSweep and option-less RunSweepCheckpointed export different bytes")
	}
	want, err := os.ReadFile(filepath.Join("internal", "sweep", "testdata", "golden_sweep_2x2x2.csv"))
	if err != nil {
		t.Fatalf("reading sweep golden: %v", err)
	}
	if plain.CSV() != string(want) {
		t.Fatalf("facade sweep CSV drifted from the sweep engine's golden\n--- got ---\n%s--- want ---\n%s", plain.CSV(), want)
	}
}

// TestCampaignFacade locks the facade-level resume contract on a shrunken
// built-in sweep: fingerprints are stable across calls and sensitive to
// options, an interrupted-then-resumed checkpointed run recomputes only
// the missing cells, and its CSV equals a plain RunSweep byte for byte.
func TestCampaignFacade(t *testing.T) {
	o := sweepOptions()
	o.Workers = 4
	sw := tinyTestSweep(t, "cache-sweep")

	h1, err := SweepFingerprint(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := SweepFingerprint(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", h1, h2)
	}
	o2 := o
	o2.Seed = o.Seed + 1
	h3, err := SweepFingerprint(o2, sw)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("fingerprint ignores the seed")
	}

	plain, err := RunSweep(o, sw)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var lines []string
	copt := CampaignOptions{Checkpoint: dir, Resume: true,
		Logf: func(format string, args ...any) { lines = append(lines, format) }}
	res, stats, err := RunSweepCheckpointed(o, sw, copt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 || stats.Executed != stats.Cells {
		t.Fatalf("cold checkpointed run: %+v", stats)
	}
	if res.CSV() != plain.CSV() {
		t.Fatal("checkpointed run CSV differs from plain RunSweep")
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "resumed %d/%d cells") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no resume progress line logged; got %q", lines)
	}

	res2, stats2, err := RunSweepCheckpointed(o, sw, copt)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != stats.Cells || stats2.Executed != 0 {
		t.Fatalf("warm resume recomputed cells: %+v", stats2)
	}
	if res2.CSV() != plain.CSV() {
		t.Fatal("resumed run CSV differs from plain RunSweep")
	}

	// Options.Observer is the only way to instrument a campaign: it must
	// reach every cell run and stay inert.
	o.Observer = NewObserver()
	observed, err := RunSweep(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	if observed.CSV() != plain.CSV() {
		t.Fatal("observed run CSV differs from plain RunSweep")
	}
	var sb strings.Builder
	if err := o.Observer.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("protocol_queries_submitted_total %d\n", observed.Runs()*(sw.Warmup()+sw.Queries()))
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("Options.Observer missed cell runs: want %q in\n%s", want, sb.String())
	}
}

// TestFingerprintIgnoresRecordRetention: RetainRecords changes no cell
// byte, so it must not change the campaign's identity either (before the
// sweep cleared the base collector configuration, toggling it orphaned
// every checkpoint). The plain hash is pinned, so a change that moves every
// campaign's identity shows here. It moved once, when the fallback fanout
// left the configuration for a constant, together with the checkpoint
// format's version 4, which re-runs those checkpoints anyway.
func TestFingerprintIgnoresRecordRetention(t *testing.T) {
	sw, err := SweepByName("ttl-sweep")
	if err != nil {
		t.Fatal(err)
	}
	const plain = "42f8ff607ae716d95239b7f7e61056aeffd7aec53356165e470ffb2079025b77"
	o := DefaultOptions()
	for name, set := range map[string]func(*Options){
		"plain":         func(*Options) {},
		"RetainRecords": func(o *Options) { o.RetainRecords = true },
		"Observer":      func(o *Options) { o.Observer = NewObserver() },
	} {
		opt := o
		set(&opt)
		h, err := SweepFingerprint(opt, sw)
		if err != nil {
			t.Fatal(err)
		}
		if h != plain {
			t.Errorf("%s: fingerprint %s, want %s", name, h, plain)
		}
	}
}

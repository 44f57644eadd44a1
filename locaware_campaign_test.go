package locaware

import (
	"os"
	"path/filepath"
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

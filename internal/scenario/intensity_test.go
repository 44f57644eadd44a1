package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestScaleIntensityIdentity(t *testing.T) {
	for _, s := range builtins() {
		scaled := s.ScaleIntensity(1)
		if !reflect.DeepEqual(s, scaled) {
			t.Fatalf("%q: intensity 1 must be the identity\nwant %+v\ngot  %+v", s.Name, s, scaled)
		}
	}
}

func TestScaleIntensityDoesNotMutateSource(t *testing.T) {
	src, _ := Lookup("churn-waves")
	before, _ := json.Marshal(src)
	src.ScaleIntensity(0.25)
	after, _ := json.Marshal(src)
	if string(before) != string(after) {
		t.Fatal("scaling mutated the source spec")
	}
}

func TestScaleIntensityScalesMagnitudes(t *testing.T) {
	src, _ := Lookup("churn-waves")
	half := src.ScaleIntensity(0.5)
	wave := half.Phases[1]
	if wave.Churn.LeaveProb != 0.025 || wave.Churn.JoinProb != 0.025 {
		t.Fatalf("churn probs = %+v, want halved", wave.Churn)
	}
	if wave.Events[0].Frac != 0.125 {
		t.Fatalf("wave frac = %g, want 0.125", wave.Events[0].Frac)
	}
	fc, _ := Lookup("flashcrowd")
	double := fc.ScaleIntensity(2)
	crowd := double.Phases[1].Events[0]
	if crowd.RateFactor != 7 { // 1 + (4-1)*2
		t.Fatalf("rate factor = %g, want excess-scaled 7", crowd.RateFactor)
	}
	if crowd.HotFiles != 16 || scaleCount(1, 3) != 3 {
		t.Fatalf("hot files = %d and 1 scales by 3 to %d, want 16 and 3", crowd.HotFiles, scaleCount(1, 3))
	}
	if crowd.ZipfS < 1.79 || crowd.ZipfS > 1.81 { // 1 + (1.4-1)*2
		t.Fatalf("zipf override = %g, want excess-scaled 1.8", crowd.ZipfS)
	}
	ro, _ := Lookup("regional-outage")
	outage := ro.ScaleIntensity(0.5).Phases[1].Events[0]
	if outage.LatencyFactor != 2 { // 1 + (3-1)*0.5
		t.Fatalf("latency factor = %g, want 2", outage.LatencyFactor)
	}
	if outage.LinkDropFrac != 0.15 {
		t.Fatalf("link drop = %g, want 0.15", outage.LinkDropFrac)
	}
}

func TestScaleIntensityClampsAndValidates(t *testing.T) {
	// Every builtin must stay valid across the whole factor range,
	// including the degenerate endpoints and over-amplification that must
	// clamp probabilities and fractions to 1.
	for _, s := range builtins() {
		for _, f := range []float64{0, 0.1, 1, 2.5, 100, -3} {
			scaled := s.ScaleIntensity(f)
			if err := scaled.Validate(); err != nil {
				t.Fatalf("%q scaled by %g is invalid: %v", s.Name, f, err)
			}
		}
		if !reflect.DeepEqual(s.ScaleIntensity(-0.5), s.ScaleIntensity(0)) {
			t.Fatalf("%q: a negative intensity must clamp to 0", s.Name)
		}
	}
	cw, _ := Lookup("churn-waves")
	big := cw.ScaleIntensity(100)
	if p := big.Phases[1].Churn.LeaveProb; p != 1 {
		t.Fatalf("leave prob = %g, want clamp to 1", p)
	}
	if frac := big.Phases[1].Events[0].Frac; frac != 1 {
		t.Fatalf("wave frac = %g, want clamp to 1", frac)
	}
}

// TestScaleIntensityZeroKeepsBaseZipf locks the intensity-0 baseline
// contract for the absolute Zipf override: the event must fall back to
// "keep the current exponent" (0), never replace a non-uniform base
// popularity with the multiplier-neutral exponent 1.
func TestScaleIntensityZeroKeepsBaseZipf(t *testing.T) {
	fc, _ := Lookup("flashcrowd")
	zero := fc.ScaleIntensity(0)
	crowd := zero.Phases[1].Events[0]
	if crowd.ZipfS != 0 {
		t.Fatalf("zipf override at zero intensity = %g, want 0 (keep)", crowd.ZipfS)
	}
	if crowd.RateFactor != 1 {
		t.Fatalf("rate factor at zero intensity = %g, want neutral 1", crowd.RateFactor)
	}
	if crowd.HotFiles != 0 {
		t.Fatalf("hot set at zero intensity = %d, want 0", crowd.HotFiles)
	}
}

func TestScaleIntensityZeroDropsNoOpEvents(t *testing.T) {
	for _, c := range []struct {
		e    EventSpec
		f    float64
		keep bool
	}{{EventSpec{Kind: KindFlashCrowd, HotFiles: 3}, 0, false}, {EventSpec{Kind: KindFlashCrowd, HotFiles: 1}, 1, true},
		{EventSpec{Kind: KindFlashCrowd, ZipfS: 1}, 1, true}, {EventSpec{Kind: KindInjectFiles, Files: 1}, 1, true},
		{EventSpec{Kind: KindDegradeRegion, LatencyFactor: 3}, 0, false}, {EventSpec{Kind: KindDegradeRegion, LatencyFactor: 3}, 0.25, true},
		{EventSpec{Kind: KindDegradeRegion, LinkDropFrac: 0.5}, 1, true}} {
		if _, keep := scaleEvent(c.e, c.f); keep != c.keep {
			t.Errorf("%+v at intensity %g: kept %v, want %v", c.e, c.f, keep, c.keep)
		}
	}
	cw, _ := Lookup("churn-waves")
	zero := cw.ScaleIntensity(0)
	if n := len(zero.Phases[1].Events); n != 0 {
		t.Fatalf("zero-intensity wave phase keeps %d events, want 0 (frac scaled to 0)", n)
	}
	if p := zero.Phases[1].Churn.LeaveProb; p != 0 {
		t.Fatalf("leave prob = %g, want 0", p)
	}
	cs, _ := Lookup("content-shift")
	zeroCS := cs.ScaleIntensity(0)
	for i, p := range zeroCS.Phases {
		if len(p.Events) != 0 {
			t.Fatalf("phase %d keeps %d content events at zero intensity", i, len(p.Events))
		}
	}
	// The phase timeline itself must survive: intensity sweeps compare the
	// same phases across cells.
	if len(zero.Phases) != len(cw.Phases) {
		t.Fatal("zero intensity dropped phases")
	}
}

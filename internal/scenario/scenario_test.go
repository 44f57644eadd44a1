package scenario

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

func TestBuiltinsValidateAndResolve(t *testing.T) {
	for _, s := range builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("built-in %q invalid: %v", s.Name, err)
		}
		marks, err := s.Marks(1000)
		if err != nil {
			t.Errorf("built-in %q: Marks: %v", s.Name, err)
			continue
		}
		if len(marks) != len(s.Phases) {
			t.Errorf("built-in %q: %d marks for %d phases", s.Name, len(marks), len(s.Phases))
		}
		if marks[len(marks)-1].End != 1000 {
			t.Errorf("built-in %q: last mark ends at %d, want 1000", s.Name, marks[len(marks)-1].End)
		}
		prev := 0
		for i, m := range marks {
			if m.End <= prev {
				t.Errorf("built-in %q: mark %d not ascending (%d after %d)", s.Name, i, m.End, prev)
			}
			if m.Name != s.Phases[i].Name {
				t.Errorf("built-in %q: mark %d named %q, want %q", s.Name, i, m.Name, s.Phases[i].Name)
			}
			prev = m.End
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Names lists %q but Lookup misses it", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
	// Registry copies are independent: mutating one must not leak.
	a, _ := Lookup("flashcrowd")
	a.Phases[0].Name = "mutated"
	b, _ := Lookup("flashcrowd")
	if b.Phases[0].Name == "mutated" {
		t.Error("Lookup returns shared mutable spec")
	}
}

func TestMarksTinyRuns(t *testing.T) {
	flash, _ := Lookup("flashcrowd") // 4 phases
	if _, err := flash.Marks(3); err == nil {
		t.Error("Marks accepted fewer measured queries than phases")
	}
	// Every phase gets a query, the last phases keep room for theirs.
	for _, c := range []struct {
		s    *Spec
		want []int
	}{{flash, []int{1, 2, 3, 4}},
		{&Spec{Name: "thin head", Phases: []PhaseSpec{{Name: "a", Fraction: 0.001}, {Name: "b", Fraction: 0.001}, {Name: "c", Fraction: 1}}}, []int{1, 2, 100}},
		{&Spec{Name: "thin tail", Phases: []PhaseSpec{{Name: "a", Fraction: 1}, {Name: "b", Fraction: 0.001}}}, []int{99, 100}}} {
		marks, err := c.s.Marks(c.want[len(c.want)-1])
		for i, end := range c.want {
			if err != nil || marks[i].End != end {
				t.Fatalf("%s: marks %v (%v), want ends %v", c.s.Name, marks, err, c.want)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	spec := func(p PhaseSpec) Spec { p.Name = "p"; return Spec{Name: "x", Phases: []PhaseSpec{p}} }
	ev := func(e EventSpec) Spec { return spec(PhaseSpec{Fraction: 1, Events: []EventSpec{e}}) }
	churn := func(l, j float64) Spec {
		return spec(PhaseSpec{Fraction: 1, Churn: &ChurnSpec{LeaveProb: l, JoinProb: j}})
	}
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"no name", Spec{Phases: []PhaseSpec{{Name: "p", Fraction: 1}}}, false},
		{"no phases", Spec{Name: "x"}, false},
		{"zero fraction", spec(PhaseSpec{}), false},
		{"negative churn interval", Spec{Name: "x", ChurnIntervalS: -0.5, Phases: []PhaseSpec{{Name: "p", Fraction: 1}}}, false},
		{"unknown kind", ev(EventSpec{Kind: "warp-core-breach"}), false},
		{"wave frac", ev(EventSpec{Kind: KindChurnWave, Frac: 1.5}), false},
		{"zero wave", ev(EventSpec{Kind: KindChurnWave}), false},
		{"negative wave", ev(EventSpec{Kind: KindChurnWave, Frac: -0.5}), false},
		{"whole wave", ev(EventSpec{Kind: KindChurnWave, Frac: 1}), true},
		{"empty flash", ev(EventSpec{Kind: KindFlashCrowd}), false},
		{"negative hot set", ev(EventSpec{Kind: KindFlashCrowd, HotFiles: -1, RateFactor: 1}), false},
		{"negative rate", ev(EventSpec{Kind: KindFlashCrowd, HotFiles: 1, RateFactor: -0.5}), false},
		{"negative exponent", ev(EventSpec{Kind: KindFlashCrowd, HotFiles: 1, ZipfS: -0.5}), false},
		{"hot set only", ev(EventSpec{Kind: KindFlashCrowd, HotFiles: 1}), true},
		{"rate only", ev(EventSpec{Kind: KindFlashCrowd, RateFactor: 0.5}), true},
		{"exponent only", ev(EventSpec{Kind: KindFlashCrowd, ZipfS: 0.5}), true},
		{"inject zero", ev(EventSpec{Kind: KindInjectFiles}), false},
		{"inject one", ev(EventSpec{Kind: KindInjectFiles, Files: 1}), true},
		{"negative copies", ev(EventSpec{Kind: KindInjectFiles, Files: 1, Copies: -1}), false},
		{"no localities", ev(EventSpec{Kind: KindDegradeRegion, LatencyFactor: 2}), false},
		{"degrade nothing", ev(EventSpec{Kind: KindDegradeRegion, Localities: 1}), false},
		{"factor 1", ev(EventSpec{Kind: KindDegradeRegion, Localities: 1, LatencyFactor: 1}), true},
		{"link drop only", ev(EventSpec{Kind: KindDegradeRegion, Localities: 1, LinkDropFrac: 0.5}), true},
		{"link drop above 1", ev(EventSpec{Kind: KindDegradeRegion, Localities: 1, LatencyFactor: 2, LinkDropFrac: 1.5}), false},
		{"negative link drop", ev(EventSpec{Kind: KindDegradeRegion, Localities: 1, LatencyFactor: 2, LinkDropFrac: -0.5}), false},
		{"bad churn prob", churn(2, 0), false}, {"negative leave", churn(-0.5, 0), false},
		{"negative join", churn(0, -0.5), false}, {"join above 1", churn(0, 1.5), false}, {"certain churn", churn(1, 1), true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate returned %v", c.name, err)
		}
	}
}

// TestParseSpecJSONRoundTrip: every built-in scenario round-trips through
// JSON, and the registry's JSON is pinned in testdata/builtins.json, so a
// scenario that changes what it runs changes that file deliberately.
func TestParseSpecJSONRoundTrip(t *testing.T) {
	all, _ := json.MarshalIndent(builtins(), "", "  ")
	if want, err := os.ReadFile("testdata/builtins.json"); err != nil || string(want) != string(all) {
		t.Errorf("the built-in scenarios differ from testdata/builtins.json (%v)", err)
	}
	for _, s := range builtins() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: JSON: %v", s.Name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: ParseSpec of own JSON: %v", s.Name, err)
		}
		a, _ := json.Marshal(s)
		b, _ := json.Marshal(back)
		if string(a) != string(b) {
			t.Errorf("%s: JSON round trip drifted:\n%s\n%s", s.Name, a, b)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","phases":[{"name":"p","fraction":1,"evnets":[]}]}`))
	if err == nil || !strings.Contains(err.Error(), "evnets") {
		t.Fatalf("typo'd field not rejected: %v", err)
	}
}

// TestParseSpecRejectsTrailingData: a scenario file holds one spec. A
// second value or stray bytes after it are refused, not silently ignored;
// trailing whitespace is not data.
func TestParseSpecRejectsTrailingData(t *testing.T) {
	const valid = `{"name":"x","phases":[{"name":"p","fraction":1}]}`
	if _, err := ParseSpec([]byte(valid + "\n")); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	for _, tail := range []string{`{"name":"second"} trailing garbage`, `xyz`} {
		if _, err := ParseSpec([]byte(valid + tail)); err == nil || !strings.Contains(err.Error(), "after the spec") {
			t.Errorf("spec followed by %q: %v", tail, err)
		}
	}
}

func TestSteadyChurnSpec(t *testing.T) {
	cfg := overlay.DefaultChurn()
	s, ok := Lookup("steady-churn")
	if !ok {
		t.Fatal("steady-churn missing from the registry")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ChurnInterval() != 60*sim.Second {
		t.Fatalf("interval %v, want exactly 60s", s.ChurnInterval())
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "steady" {
		t.Fatalf("steady-churn phases %+v, want the single steady phase", s.Phases)
	}
	if !s.HasChurn() {
		t.Fatal("steady-churn spec reports no churn")
	}
	p := s.Phases[0]
	if p.Churn.LeaveProb != cfg.LeaveProb || p.Churn.JoinProb != cfg.JoinProb ||
		p.Churn.MinOnlineFraction != cfg.MinOnlineFraction {
		t.Fatalf("steady-churn drifted from the churn config: %+v vs %+v", p.Churn, cfg)
	}
}

func TestChurnIntervalDefault(t *testing.T) {
	s := Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1}}}
	if s.ChurnInterval() != 60*sim.Second {
		t.Fatalf("default interval %v, want 60s", s.ChurnInterval())
	}
	s.ChurnIntervalS = 2.5
	if s.ChurnInterval() != sim.FromSeconds(2.5) {
		t.Fatalf("interval %v, want 2.5s", s.ChurnInterval())
	}
}

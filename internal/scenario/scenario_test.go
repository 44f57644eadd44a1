package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

func TestBuiltinsValidateAndResolve(t *testing.T) {
	if len(builtins()) < 6 {
		t.Fatalf("registry has %d built-ins, want >= 6", len(builtins()))
	}
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
	s, _ := Lookup("flashcrowd") // 4 phases
	if _, err := s.Marks(3); err == nil {
		t.Error("Marks accepted fewer measured queries than phases")
	}
	marks, err := s.Marks(4)
	if err != nil {
		t.Fatalf("Marks(4): %v", err)
	}
	for i, m := range marks {
		if m.End != i+1 {
			t.Fatalf("Marks(4) = %v, want one query per phase", marks)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no name", Spec{Phases: []PhaseSpec{{Name: "p", Fraction: 1}}}},
		{"no phases", Spec{Name: "x"}},
		{"zero fraction", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p"}}}},
		{"unknown kind", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Events: []EventSpec{{Kind: "warp-core-breach"}}}}}},
		{"wave frac", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Events: []EventSpec{{Kind: KindChurnWave, Frac: 1.5}}}}}},
		{"empty flash", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Events: []EventSpec{{Kind: KindFlashCrowd}}}}}},
		{"inject zero", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Events: []EventSpec{{Kind: KindInjectFiles}}}}}},
		{"degrade nothing", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Events: []EventSpec{{Kind: KindDegradeRegion, Localities: 1}}}}}},
		{"bad churn prob", Spec{Name: "x", Phases: []PhaseSpec{{Name: "p", Fraction: 1,
			Churn: &ChurnSpec{LeaveProb: 2}}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", c.name)
		}
	}
}

func TestParseSpecJSONRoundTrip(t *testing.T) {
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

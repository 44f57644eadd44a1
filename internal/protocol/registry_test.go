package protocol

import "testing"

// TestByNameRoundTripsName locks the one name → behaviour registry: every
// behaviour resolves from its own Name(), unknown names resolve to nothing,
// the baselines are the paper's four in figure order, and they are every
// name ByName knows: the §6 routing extension, measured and deleted, is
// unknown.
func TestByNameRoundTripsName(t *testing.T) {
	all := []Behavior{Flooding{}, Dicas{}, DicasKeys{}, Locaware{}}
	for _, b := range all {
		got, ok := ByName(b.Name())
		if !ok || got != b {
			t.Fatalf("ByName(%q) = %v, %v; want %T", b.Name(), got, ok, b)
		}
	}
	for _, name := range []string{"", "locaware", "Chord", "Locaware-LR"} {
		if b, ok := ByName(name); ok || b != nil {
			t.Fatalf("ByName(%q) resolved to %v", name, b)
		}
	}
	base := Baselines()
	if len(base) != 4 {
		t.Fatalf("baselines = %v", base)
	}
	for i, b := range base {
		if b != all[i] {
			t.Fatalf("baseline %d is %s, want %s", i, b.Name(), all[i].Name())
		}
	}
}

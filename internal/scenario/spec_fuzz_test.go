package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScenarioParseSpec feeds arbitrary bytes to the scenario loader. No
// input may panic it, and a spec it accepts must re-serialise to JSON it
// accepts again and that re-serialises to the same bytes. The seeds are
// every built-in scenario and a few refusals.
func FuzzScenarioParseSpec(f *testing.F) {
	for _, s := range builtins() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, refused := range []string{
		`{"name":"empty","phases":[]}`,
		`{"name":"negative","phases":[{"name":"a","fraction":-1}]}`,
		`{"name":"typo","phases":[{"name":"a","fraction":1}],"phasez":[]}`,
		`{"name":"kind","phases":[{"name":"a","fraction":1,"events":[{"kind":"no-such-event"}]}]}`,
		`{"name":"tail","phases":[{"name":"a","fraction":1}]}{"name":"second"} trailing garbage`,
		`{"name":"tail","phases":[{"name":"a","fraction":1}]}xyz`,
	} {
		f.Add([]byte(refused))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-serialise: %v", err)
		}
		back, err := ParseSpec(first)
		if err != nil {
			t.Fatalf("re-serialised spec refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip moved the spec:\n%s\n%s", first, second)
		}
	})
}

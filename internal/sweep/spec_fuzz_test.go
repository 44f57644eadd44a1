package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSweepParseSpec feeds arbitrary bytes to the campaign loader. No input
// may panic it, and a spec it accepts must re-serialise to JSON it accepts
// again and that re-serialises to the same bytes. The seeds are every
// built-in campaign and the refusals the CLI smokes check.
func FuzzSweepParseSpec(f *testing.F) {
	for _, s := range Builtins() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, refused := range []string{
		`{"name":"zero","queries":40,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"ttl","values":[0,7]}]}`,
		`{"name":"wide","queries":40,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"ttl","values":[1e19]}]}`,
		`{"name":"twice","queries":40,"protocols":["Dicas","Dicas"],"axes":[{"param":"ttl","values":[3,5]}]}`,
		`{"name":"twice","queries":40,"protocols":["Dicas"],"axes":[{"param":"ttl","values":[3,3]}]}`,
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

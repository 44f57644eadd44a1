package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/core"
)

// Every subcommand sets every world parameter, the seed and the query
// budget: one builder makes every FlagSet.
func TestEverySubcommandTakesEveryWorldFlag(t *testing.T) {
	for name := range commands {
		fs := newFlagSet(name).fs
		want := []string{"seed", "warmup", "queries"}
		for _, p := range core.Params {
			want = append(want, p.Name)
		}
		for _, flag := range want {
			if fs.Lookup(flag) == nil {
				t.Errorf("locaware %s has no -%s", name, flag)
			}
		}
	}
}

// trace's small-world defaults are set before its flags are bound, so -h
// prints them (a zero default prints as no default).
func TestTraceHelpPrintsItsDefaults(t *testing.T) {
	fs := newFlagSet("trace").fs
	var help bytes.Buffer
	fs.SetOutput(&help)
	fs.Usage()
	for name, def := range map[string]string{"peers": "100", "query-rate": "0.01", "warmup": "0", "queries": "10"} {
		f := fs.Lookup(name)
		line := f.Usage + " (default " + def + ")\n"
		if def == "0" {
			line = f.Usage + "\n"
		}
		if f.DefValue != def || !strings.Contains(help.String(), line) {
			t.Errorf("-%s defaults to %s, want %s printed by -h:\n%s", name, f.DefValue, def, help.String())
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
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

// Every locaware line in a fenced block of README.md or the verify skill
// parses as main parses it: subcommand, flags and positional argument. A
// shell comment, pipe or redirection ends the command.
func TestQuotedCommandsParse(t *testing.T) {
	cmd := regexp.MustCompile(`(?:^|[\s/])locaware (\w+)([^#|>;&]*)`)
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		fenced, quoted := false, 0
		for _, line := range strings.Split(string(src), "\n") {
			fenced = fenced != strings.HasPrefix(strings.TrimSpace(line), "```")
			if m := cmd.FindStringSubmatch(line); fenced && m != nil {
				fs := newFlagSet(m[1]).fs
				fs.Init(m[1], flag.ContinueOnError)
				err, arg := fs.Parse(strings.Fields(m[2])), ""
				if err == nil && fs.NArg() > 0 && positional[m[1]] != "" {
					arg, err = fs.Arg(0), fs.Parse(fs.Args()[1:])
				}
				if quoted++; commands[m[1]] == nil || err != nil || fs.NArg() > 0 || arg == "" && positional[m[1]] != "" {
					t.Errorf("%s quotes %q: %v, arguments %q", doc, strings.TrimSpace(line), err, fs.Args())
				}
			}
		}
		if quoted == 0 {
			t.Errorf("%s quotes no locaware command in a fenced block (%v)", doc, err)
		}
	}
}

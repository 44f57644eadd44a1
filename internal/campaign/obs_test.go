package campaign

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// TestRunProgressAndObsByteIdentity checks the in-process resumable
// runner under an attached registry and a progress ticker still produces
// golden bytes, and that its instrumentation actually counted the runs.
func TestRunProgressAndObsByteIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	var lines []string
	base := core.DefaultConfig()
	base.Obs = reg
	camp, stats, err := Run(base, tinySpec(), 2, Options{
		Progress: 5 * time.Millisecond,
		Logf: func(format string, args ...any) {
			lines = append(lines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 {
		t.Fatalf("executed %d cells, want 4", stats.Executed)
	}
	if got := camp.CSV(); got != goldenCSV(t) {
		t.Fatalf("instrumented in-process campaign drifted from golden:\n%s", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^protocol_queries_submitted_total [1-9]\d*$`).MatchString(sb.String()) {
		t.Fatalf("registry counted no submitted queries across the campaign:\n%s", sb.String())
	}
	_ = lines // progress lines are timing-dependent; their absence is not a failure
}

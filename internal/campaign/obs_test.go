package campaign

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// TestRunProgressAndObsByteIdentity checks the in-process resumable
// runner under an attached registry still produces golden bytes, and that
// its instrumentation actually counted the runs. Its clock steps 1 s a
// reading, so with a 2 s interval cells 2 and 4 log progress lines.
func TestRunProgressAndObsByteIdentity(t *testing.T) {
	defer func(clock func() time.Time) { now = clock }(now)
	tick := time.Time{}
	now = func() time.Time { tick = tick.Add(time.Second); return tick }
	reg := obs.NewRegistry()
	base := core.DefaultConfig()
	base.Obs = reg
	var lines []string
	camp, stats, err := Run(base, tinySpec(), 2, Options{Progress: 2 * time.Second,
		Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }})
	must(t, err)
	if want := []string{"progress: 2/4 done (0 resumed), 1.00 cells/s, eta 2s",
		"progress: 4/4 done (0 resumed), 1.00 cells/s, eta 0s"}; !slices.Equal(lines, want) || camp.Elapsed != 5*time.Second {
		t.Fatalf("progress lines %q in %s, want %q in 5s", lines, camp.Elapsed, want)
	}
	if stats.Executed != 4 {
		t.Fatalf("executed %d cells, want 4", stats.Executed)
	}
	if got := camp.CSV(); got != goldenCSV(t) {
		t.Fatalf("instrumented in-process campaign drifted from golden:\n%s", got)
	}
	var sb strings.Builder
	must(t, reg.WritePrometheus(&sb))
	if !regexp.MustCompile(`(?m)^protocol_queries_submitted_total [1-9]\d*$`).MatchString(sb.String()) {
		t.Fatalf("registry counted no submitted queries across the campaign:\n%s", sb.String())
	}
}

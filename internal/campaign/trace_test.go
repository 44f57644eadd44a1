package campaign

import (
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/trace"
)

func tinyTracePolicy() *trace.Policy {
	return &trace.Policy{SlowestN: 1, KeepFailed: true}
}

// TestRunWithTracePolicyShipsExemplars locks the tracing-inertness
// contract for in-process campaigns: attaching a trace policy must leave
// the folded CSV byte-identical to the untraced golden (the policy is
// hash-excluded and the recorder must not perturb the runs), while every
// completed cell carries a rendered worst-case exemplar trace.
func TestRunWithTracePolicyShipsExemplars(t *testing.T) {
	base := core.DefaultConfig()
	base.TracePolicy = tinyTracePolicy()
	camp, stats, err := Run(base, tinySpec(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 {
		t.Fatalf("executed %d cells, want 4", stats.Executed)
	}
	if got := camp.CSV(); got != goldenCSV(t) {
		t.Fatalf("traced campaign CSV drifted from untraced golden:\n--- got ---\n%s", got)
	}
	for i := range camp.Cells {
		ex := camp.Cells[i].Exemplar
		if ex == nil {
			t.Fatalf("cell %d shipped no exemplar trace", i)
		}
		if ex.Protocol != "Dicas" && ex.Protocol != "Locaware" {
			t.Fatalf("cell %d exemplar names unknown protocol %q", i, ex.Protocol)
		}
		if ex.LatencySeconds < 0 {
			t.Fatalf("cell %d exemplar has negative latency %f", i, ex.LatencySeconds)
		}
		if !strings.Contains(ex.Rendered, "q=") {
			t.Fatalf("cell %d exemplar rendering is not a span tree:\n%s", i, ex.Rendered)
		}
	}
}

package locaware

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/scenario"
)

// Scenario is a declarative phased-dynamics timeline: the measured query
// stream is divided into named phases, each optionally running periodic
// churn and firing typed dynamics events on entry (churn waves, flash
// crowds, content injection/removal, provider migration, regional latency
// degradation and link loss). Scenarios are deterministic — the same seed
// and scenario reproduce the run byte-for-byte at any worker count — and
// every metric is additionally reported per phase.
//
// Obtain one by built-in name or spec file (LoadScenario, ScenarioNames)
// or from JSON (ParseScenario); new scenarios need no code.
type Scenario struct {
	spec *scenario.Spec
}

// ErrUnknownScenario reports a name missing from the built-in registry.
var ErrUnknownScenario = errors.New("locaware: unknown scenario")

// ScenarioNames lists the built-in scenario registry, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ParseScenario decodes and validates a JSON scenario spec; see the README
// "Scenarios" section for the schema. Unknown fields are rejected.
func ParseScenario(data []byte) (*Scenario, error) {
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return &Scenario{spec: spec}, nil
}

// LoadScenario resolves a CLI-style scenario argument: a built-in name
// first; an argument containing path characters is read as a JSON spec
// file instead. The locaware command resolves every scenario argument
// (scenario NAME|PATH, and -scenario on run and trace) through it.
func LoadScenario(nameOrPath string) (*Scenario, error) {
	if spec, ok := scenario.Lookup(nameOrPath); ok {
		return &Scenario{spec: spec}, nil
	} else if !looksLikePath(nameOrPath) {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownScenario, nameOrPath,
			strings.Join(scenario.Names(), ", "))
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("locaware: reading scenario spec: %w", err)
	}
	return ParseScenario(data)
}

// Name returns the scenario's name.
func (s *Scenario) Name() string { return s.spec.Name }

// Description returns the scenario's one-line summary.
func (s *Scenario) Description() string { return s.spec.Description }

// PhaseNames returns the phase names in timeline order.
func (s *Scenario) PhaseNames() []string {
	out := make([]string, len(s.spec.Phases))
	for i, p := range s.spec.Phases {
		out[i] = p.Name
	}
	return out
}

// String identifies the scenario.
func (s *Scenario) String() string {
	return fmt.Sprintf("scenario{%s phases=%d}", s.spec.Name, len(s.spec.Phases))
}

// PhaseMetrics is the full metric set of one scenario phase (Result.Phases),
// computed by the streaming collector over the measured queries in
// (Start, End]: Phase, the phase's name from the scenario spec; Start
// (exclusive) and End (inclusive), the span's cumulative measured query
// counts, and Queries, its size; the figure metrics SuccessRate,
// AvgMessagesPerQuery and AvgDownloadRTTMs (milliseconds); and the
// success-conditioned SameLocalityRate, CacheHitRate and AvgHops.
type PhaseMetrics = metrics.PhaseWindow

// PhaseEstimates is one scenario phase across trials (TrialsResult.Phases,
// under Options.Scenario): PhaseMetrics' fields, Queries and each metric an
// Estimate pooled phase-aligned over the trials (trial t's phase k feeds
// estimate k); Phase, Start and End are shared by all trials.
type PhaseEstimates = metrics.PhaseStats

// PhaseTable renders the replicated per-phase metrics as an aligned text
// table, one row per phase, with mean±ci95 cells (a bare mean for a single
// trial).
func (r *TrialsResult) PhaseTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %13s %13s %15s %13s %13s %11s\n",
		"phase", "queries", "success", "msgs/q", "rtt(ms)", "sameLoc", "cacheHit", "hops")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-12s %8.0f %13s %13s %15s %13s %13s %11s\n",
			p.Phase, p.Queries.Mean, p.SuccessRate, p.AvgMessagesPerQuery, p.AvgDownloadRTTMs,
			p.SameLocalityRate, p.CacheHitRate, p.AvgHops)
	}
	return b.String()
}

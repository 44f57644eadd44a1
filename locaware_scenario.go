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
// Obtain one from the built-in registry (ScenarioByName, ScenarioNames) or
// from JSON (ParseScenario); new scenarios need no code.
type Scenario struct {
	spec *scenario.Spec
}

// ErrUnknownScenario reports a name missing from the built-in registry.
var ErrUnknownScenario = errors.New("locaware: unknown scenario")

// ScenarioNames lists the built-in scenario registry, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns a built-in scenario.
func ScenarioByName(name string) (*Scenario, error) {
	spec, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownScenario, name,
			strings.Join(scenario.Names(), ", "))
	}
	return &Scenario{spec: spec}, nil
}

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
// file instead. Both CLIs (locaware-exp, locaware-trace) resolve their
// -scenario flags through this helper.
func LoadScenario(nameOrPath string) (*Scenario, error) {
	if sc, err := ScenarioByName(nameOrPath); err == nil {
		return sc, nil
	} else if !looksLikePath(nameOrPath) {
		return nil, err
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

// PhaseMetrics is the full metric set of one scenario phase, computed by
// the streaming collector over the measured queries in (Start, End].
type PhaseMetrics struct {
	// Phase is the phase's name from the scenario spec.
	Phase string
	// Start (exclusive) and End (inclusive) bound the phase's span of
	// cumulative measured query counts; Queries is the span's size.
	Start, End, Queries int
	// The figure metrics over the phase.
	SuccessRate         float64
	AvgMessagesPerQuery float64
	AvgDownloadRTTMs    float64
	// The secondary metrics over the phase (success-conditioned).
	SameLocalityRate float64
	CacheHitRate     float64
	AvgHops          float64
}

// PhaseEstimates is the cross-trial aggregation of one scenario phase:
// every phase metric as a mean ± stddev ± 95% CI estimate pooled over the
// replicated trials, phase-aligned (trial t's phase k contributes to
// estimate k). Produced by RunTrials/Compare when Options.Scenario is set.
type PhaseEstimates struct {
	// Phase is the phase's name from the scenario spec.
	Phase string
	// Start (exclusive) and End (inclusive) bound the phase's span of
	// cumulative measured query counts, shared by all trials.
	Start, End int
	// Queries estimates how many queries each trial recorded in the span.
	Queries Estimate
	// The figure metrics over the phase.
	SuccessRate         Estimate
	AvgMessagesPerQuery Estimate
	AvgDownloadRTTMs    Estimate
	// The secondary metrics over the phase (success-conditioned).
	SameLocalityRate Estimate
	CacheHitRate     Estimate
	AvgHops          Estimate
}

// liftPhaseWindow lifts one sealed metric window (a phase, or the whole run) to
// its facade form.
func liftPhaseWindow(w metrics.PhaseWindow) PhaseMetrics {
	return PhaseMetrics{
		Phase:               w.Name,
		Start:               w.Start,
		End:                 w.End,
		Queries:             w.Queries,
		SuccessRate:         w.SuccessRate,
		AvgMessagesPerQuery: w.MessagesPerQuery,
		AvgDownloadRTTMs:    w.DownloadRTT,
		SameLocalityRate:    w.SameLocalityRate,
		CacheHitRate:        w.CacheHitRate,
		AvgHops:             w.AvgHops,
	}
}

// liftPhaseStats lifts one cross-trial metric window to its facade form.
func liftPhaseStats(ps metrics.PhaseStats) PhaseEstimates {
	return PhaseEstimates{
		Phase:               ps.Name,
		Start:               ps.Start,
		End:                 ps.End,
		Queries:             toEstimate(ps.Queries),
		SuccessRate:         toEstimate(ps.SuccessRate),
		AvgMessagesPerQuery: toEstimate(ps.MessagesPerQuery),
		AvgDownloadRTTMs:    toEstimate(ps.DownloadRTT),
		SameLocalityRate:    toEstimate(ps.SameLocalityRate),
		CacheHitRate:        toEstimate(ps.CacheHitRate),
		AvgHops:             toEstimate(ps.AvgHops),
	}
}

// PhaseTable renders the replicated per-phase metrics as an aligned text
// table with mean±ci95 cells — the error-barred counterpart of the
// single-run PhaseTable.
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

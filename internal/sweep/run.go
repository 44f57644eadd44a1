package sweep

import (
	"fmt"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
)

// ProtocolCell is one protocol's replicated result at one grid point: the
// cross-trial summary of the headline metrics plus, under a scenario, the
// phase-aligned cross-trial phase windows.
type ProtocolCell struct {
	// Protocol is the protocol name.
	Protocol string
	// Summary aggregates the headline metrics across the cell's trials —
	// identical to the Summary a standalone core.RunTrialComparison of
	// this cell produces.
	Summary core.TrialSummary
	// Phases aggregates the scenario phase windows across trials; nil
	// without a scenario.
	Phases []metrics.PhaseStats
}

// CellResult is one fully aggregated grid point: its identity (index,
// seed, coordinates) plus one ProtocolCell per campaign protocol, in
// protocol-set order.
type CellResult struct {
	Cell
	// Protocols holds the per-protocol aggregates in campaign order.
	Protocols []ProtocolCell
	// Exemplar is the cell's worst-case query trace — the highest-latency
	// trace any of the cell's runs retained — kept alongside the
	// aggregates so a campaign surfaces concrete causal evidence, not just
	// summary statistics. Nil unless the campaign ran
	// with a trace policy (base Config.TracePolicy).
	Exemplar *ExemplarTrace `json:",omitempty"`
}

// ExemplarTrace is one retained query trace selected as a cell's exemplar:
// the slowest query observed across the cell's (protocol × trial) runs,
// pre-rendered so a checkpoint reader needs no simulator state to read it.
// Selection is deterministic: strictly higher latency wins, ties keep the
// earliest (protocol, trial) in campaign order.
type ExemplarTrace struct {
	// Protocol and Trial locate the run that produced the trace.
	Protocol string
	Trial    int
	// Query is the traced query's id.
	Query uint64
	// LatencySeconds is the query's completion latency.
	LatencySeconds float64
	// Failed reports the query finalised without an answer.
	Failed bool
	// Hops is the deepest forward chain the query reached.
	Hops int
	// Rendered is the trace's span-tree text timeline.
	Rendered string
}

// exemplarOf lifts a run's slowest retained trace (runs order traces
// slowest-first) into an exemplar, or nil when the run retained nothing.
func exemplarOf(run *core.RunResult, protocol string, trial int) *ExemplarTrace {
	if len(run.Traces) == 0 {
		return nil
	}
	t := run.Traces[0]
	rendered := ""
	if tree := t.Tree(run.TraceProcessing); tree != nil {
		rendered = tree.Render()
	}
	return &ExemplarTrace{
		Protocol:       protocol,
		Trial:          trial,
		Query:          t.Query,
		LatencySeconds: t.Latency.Seconds(),
		Failed:         t.Failed,
		Hops:           t.Hops,
		Rendered:       rendered,
	}
}

// Campaign is one executed sweep: the spec, the resolved identity of the
// run (seed, trials, protocol set), and every aggregated cell in grid
// order. Campaigns hold only aggregates — per-trial collectors are folded
// and released as results stream in, so campaign memory is O(cells ×
// protocols × phases), independent of trial and query counts.
type Campaign struct {
	// Spec is the campaign definition.
	Spec *Spec
	// Seed is the resolved campaign root seed.
	Seed int64
	// Trials is the resolved replication count per cell.
	Trials int
	// Protocols is the resolved protocol set.
	Protocols []string
	// Cells holds the aggregated grid in expansion order.
	Cells []CellResult
	// Elapsed is the campaign's wall-clock duration (reporting only; it
	// never appears in exported tables).
	Elapsed time.Duration
}

// CellsPerSecond reports campaign throughput in grid cells per wall-clock
// second (0 when the elapsed time was not captured).
func (c *Campaign) CellsPerSecond() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(len(c.Cells)) / c.Elapsed.Seconds()
}

// Runs returns the total simulation count of the campaign
// (cells × protocols × trials).
func (c *Campaign) Runs() int {
	return len(c.Cells) * len(c.Protocols) * c.Trials
}

// resolved holds a validated spec lowered onto a base configuration:
// expanded cells, per-cell configs (a scenario's grid is checked here and
// resolved by each run) and the behaviour set.
type resolved struct {
	spec      *Spec
	seed      int64
	trials    int
	names     []string
	behaviors []protocol.Behavior
	cells     []Cell
	cellCfgs  []core.Config
}

// resolve validates and lowers the spec against the base configuration.
func resolve(base core.Config, s *Spec) (*resolved, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := s.Seed
	if seed == 0 {
		seed = base.Seed
	}
	if seed == 0 {
		seed = 1
	}
	names := s.ProtocolNames()
	behaviors := make([]protocol.Behavior, len(names))
	for i, n := range names {
		behaviors[i], _ = protocol.ByName(n) // Validate vouched for every name
	}
	// The campaign owns dynamics configuration: any ambient scenario on
	// the base config is cleared so cells run exactly what the spec says
	// (spec/axis scenario, or nothing).
	base.Scenario = nil
	cells := s.Cells(seed)
	cellCfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfg := s.cellConfig(base, c)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep %q cell %d (%s): %w", s.Name, c.Index, c.Label(), err)
		}
		if cfg.Scenario != nil {
			if _, err := cfg.Scenario.Marks(s.Queries); err != nil {
				return nil, fmt.Errorf("sweep %q cell %d: %w", s.Name, c.Index, err)
			}
		}
		cellCfgs[i] = cfg
	}
	return &resolved{
		spec: s, seed: seed, trials: s.trials(),
		names: names, behaviors: behaviors,
		cells: cells, cellCfgs: cellCfgs,
	}, nil
}

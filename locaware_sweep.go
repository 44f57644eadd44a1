package locaware

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/p2prepro/locaware/internal/sweep"
)

// looksLikePath reports whether a registry argument should be treated as
// a file path (shared by the scenario and sweep CLI loaders).
func looksLikePath(arg string) bool { return strings.ContainsAny(arg, "./\\") }

// Sweep is a declarative experiment campaign: a grid of axes over
// simulation parameters (overlay size, cache capacity, TTL, scenario
// name/intensity, …) crossed with a protocol set and replicated
// trials-per-cell. RunSweep expands the grid, schedules every
// (cell × protocol × trial) simulation across the worker pool, streams the
// results into cross-trial (and, under scenarios, per-phase) aggregates,
// and exports tidy CSV plus paper-figure tables keyed by axis value with
// mean ± 95% CI error bars.
//
// Campaign determinism is cell-local: cell c's seed derives from the
// campaign seed and c alone, and trial t inside it from that cell seed and
// t — so any subset of the grid (one cell re-run in isolation, the same
// campaign at a different worker count) reproduces byte-identically, and
// every cell equals a standalone Compare of the same configuration.
//
// Obtain one by built-in name or spec file (LoadSweep, SweepNames) or
// from JSON (ParseSweep); new campaigns need no code.
type Sweep struct {
	spec *sweep.Spec
}

// ErrUnknownSweep reports a name missing from the built-in registry.
var ErrUnknownSweep = errors.New("locaware: unknown sweep")

// SweepNames lists the built-in campaign registry, sorted.
func SweepNames() []string { return sweep.Names() }

// ParseSweep decodes and validates a JSON campaign spec; the schema is in
// README.md § Sweeps. Unknown fields are rejected.
func ParseSweep(data []byte) (*Sweep, error) {
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return &Sweep{spec: spec}, nil
}

// Name returns the campaign's name.
func (s *Sweep) Name() string { return s.spec.Name }

// Description returns the campaign's one-line summary.
func (s *Sweep) Description() string { return s.spec.Description }

// NumCells returns the grid size (product of the axis lengths).
func (s *Sweep) NumCells() int { return s.spec.NumCells() }

// Protocols returns the campaign's protocol set in run order.
func (s *Sweep) Protocols() []Protocol {
	names := s.spec.ProtocolNames()
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// Axes returns the campaign's axis parameters in spec order.
func (s *Sweep) Axes() []string {
	out := make([]string, len(s.spec.Axes))
	for i, a := range s.spec.Axes {
		out[i] = a.Param
	}
	return out
}

// Figures returns the metric keys the campaign's report tabulates against
// its first axis (the spec's "figures"; default success, msgs, rtt).
func (s *Sweep) Figures() []string { return s.spec.FigureKeys() }

// Warmup returns the campaign's per-run warmup query count.
func (s *Sweep) Warmup() int { return s.spec.Warmup }

// Queries returns the campaign's per-run measured query count.
func (s *Sweep) Queries() int { return s.spec.Queries }

// Trials returns the campaign's replication count per cell.
func (s *Sweep) Trials() int { return s.spec.Trials }

// WithTrials returns a copy of the campaign with the per-cell replication
// count replaced (<= 0 means 1, as in a spec).
func (s *Sweep) WithTrials(n int) *Sweep {
	spec := *s.spec
	spec.Trials = n
	return &Sweep{spec: &spec}
}

// WithSeed returns a copy of the campaign rooted at a different seed;
// 0 returns the campaign unchanged.
func (s *Sweep) WithSeed(seed int64) *Sweep {
	if seed == 0 {
		return s
	}
	spec := *s.spec
	spec.Seed = seed
	return &Sweep{spec: &spec}
}

// WithBudget returns a copy of the campaign with its per-run warmup and
// measured query counts replaced. Running it refuses a negative warmup or
// a non-positive query count, as a spec's own.
func (s *Sweep) WithBudget(warmup, queries int) *Sweep {
	spec := *s.spec
	spec.Warmup, spec.Queries = warmup, queries
	return &Sweep{spec: &spec}
}

// WithBase returns a copy of the campaign with one base-configuration
// override set or replaced — e.g. WithBase("peers", 100) shrinks a
// campaign whose spec pins its own overlay size. The parameter must be a
// numeric sweep parameter (any axis parameter but the scenario pair).
func (s *Sweep) WithBase(param string, value float64) (*Sweep, error) {
	spec := *s.spec
	spec.Base = make(map[string]float64, len(s.spec.Base)+1)
	for k, v := range s.spec.Base {
		spec.Base[k] = v
	}
	spec.Base[param] = value
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Sweep{spec: &spec}, nil
}

// LoadSweep resolves a CLI-style campaign argument: a built-in name
// first; an argument containing path characters is read as a JSON spec
// file instead.
func LoadSweep(nameOrPath string) (*Sweep, error) {
	if spec, ok := sweep.Lookup(nameOrPath); ok {
		return &Sweep{spec: spec}, nil
	} else if !looksLikePath(nameOrPath) {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownSweep, nameOrPath,
			strings.Join(sweep.Names(), ", "))
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("locaware: reading sweep spec: %w", err)
	}
	return ParseSweep(data)
}

// String identifies the campaign.
func (s *Sweep) String() string {
	return fmt.Sprintf("sweep{%s cells=%d}", s.spec.Name, s.spec.NumCells())
}

// SweepResult is one executed campaign: per-cell, per-protocol cross-trial
// aggregates in grid order, with CSV and figure exporters. It holds only
// aggregates — per-query records and per-trial collectors are folded and
// released while the campaign streams.
type SweepResult struct {
	campaign *sweep.Campaign
}

// RunSweep executes campaign sw over the base configuration described by
// o: every Options field acts as the campaign's base value and the axes
// override per cell; o.Workers bounds the worker pool shared by all
// (cell × protocol × trial) simulations. The spec's Trials and Seed win
// over o.Trials and o.Seed when set; dynamics come exclusively from the
// spec (scenario name/intensity), never from o.Scenario. Results are
// identical for every worker count. It is RunSweepCheckpointed with
// nothing to checkpoint.
func RunSweep(o Options, sw *Sweep) (*SweepResult, error) {
	res, _, err := RunSweepCheckpointed(o, sw, CampaignOptions{})
	return res, err
}

// Seed returns the campaign root seed every cell seed derives from.
func (r *SweepResult) Seed() int64 { return r.campaign.Seed }

// Trials returns the replication count per cell.
func (r *SweepResult) Trials() int { return r.campaign.Trials }

// NumCells returns the number of grid cells the campaign aggregated.
func (r *SweepResult) NumCells() int { return len(r.campaign.Cells) }

// Runs returns the total simulation count (cells × protocols × trials).
func (r *SweepResult) Runs() int { return r.campaign.Runs() }

// Elapsed returns the campaign's wall-clock duration.
func (r *SweepResult) Elapsed() time.Duration { return r.campaign.Elapsed }

// CellsPerSecond reports campaign throughput in grid cells per second.
func (r *SweepResult) CellsPerSecond() float64 { return r.campaign.CellsPerSecond() }

// CellEstimate returns one cross-trial metric estimate for (cell,
// protocol): metric is a figure metric key (success, msgs, rtt, sameloc,
// cachehit, hops, ctlkbits or cached).
func (r *SweepResult) CellEstimate(cell int, p Protocol, metric string) (Estimate, error) {
	if cell < 0 || cell >= len(r.campaign.Cells) {
		return Estimate{}, fmt.Errorf("locaware: cell %d out of range [0, %d)", cell, len(r.campaign.Cells))
	}
	for _, pc := range r.campaign.Cells[cell].Protocols {
		if pc.Protocol != string(p) {
			continue
		}
		sum, ok := sweep.MetricSummary(pc, metric)
		if !ok {
			return Estimate{}, fmt.Errorf("locaware: unknown sweep metric %q (have %s)",
				metric, strings.Join(sweep.Metrics(), ", "))
		}
		return sum, nil
	}
	return Estimate{}, fmt.Errorf("locaware: protocol %q not in campaign", p)
}

// CSV renders the campaign as one tidy table: a row per (cell × protocol)
// with axis-value columns and mean + 95% CI columns per headline metric —
// byte-identical for every worker count.
func (r *SweepResult) CSV() string { return r.campaign.CSV() }

// PhaseCSV renders the per-phase cross-trial aggregates as a tidy table
// (a row per cell × protocol × phase), or "" when no cell ran under a
// scenario.
func (r *SweepResult) PhaseCSV() string { return r.campaign.PhaseCSV() }

// FigureTable renders one campaign metric as an aligned text table with
// mean±ci95 cells, one row per axis value and one column per curve.
func (r *SweepResult) FigureTable(metric, axisParam string) (string, error) {
	return r.campaign.FigureTable(metric, axisParam)
}

// FigureTitle returns the human-readable name reports head a metric's
// table with ("" for an unknown key).
func (r *SweepResult) FigureTitle(metric string) string { return sweep.MetricTitle(metric) }

// FigureCSV renders one campaign metric as figure-shaped CSV (x column
// plus value and _ci95 columns per curve) for external plotting.
func (r *SweepResult) FigureCSV(metric, axisParam string) (string, error) {
	return r.campaign.FigureCSV(metric, axisParam)
}

// Package sweep is the declarative campaign engine of the experiment
// harness: it turns a figure-sized question — "how does each protocol's
// success rate move as the network grows / the cache shrinks / the churn
// intensifies?" — into one schedulable object. A Spec names axes over
// simulation parameters (overlay size, cache capacity, TTL, scenario
// intensity, …), a protocol set and a trials-per-cell count; the engine
// expands the cartesian grid into cells, fans the (cell × protocol ×
// trial) jobs out through core.RunGrid's deterministic worker pool,
// streams every finished run into a cross-trial, per-phase aggregator (no
// per-query records are ever held), and exports tidy CSV plus
// paper-figure series keyed by axis value with mean ± 95% CI error bars.
//
// Determinism is cell-local: cell c's root seed derives from the campaign
// seed and c alone (CellSeed), and trial t inside the cell runs under
// sim.TrialSeed(cellSeed, t) — cells fan out through core.RunGrid, the
// same runner core.RunTrialComparison uses. Any subset of the grid
// therefore reproduces byte-identically: re-running one cell in isolation
// (Plan.RunCellAt), or the same campaign at a different worker count,
// yields the same numbers bit for bit.
//
// Specs are plain data. The built-in registry (Builtins) holds the paper's
// figure grids and parameter studies — overlay size, cache capacity, TTL,
// churn/flash-crowd intensity, landmarks, Bloom bits, group count — and
// ParseSpec loads custom campaigns from JSON, so new sweeps need no code.
package sweep

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
)

// Axis parameter names spelt as constants. The numeric parameters are
// core.Params' rows, named by their Name.
const (
	// ParamPeers names core.Params' overlay size for specs built in code.
	ParamPeers = "peers"
	// ParamScenario is the one string-valued axis: its Axis.Scenarios lists
	// built-in scenario names the campaign steps through.
	ParamScenario = "scenario"
	// ParamIntensity scales the campaign scenario's dynamics magnitudes
	// (scenario.ScaleIntensity); it requires a scenario, from Spec.Scenario
	// or a scenario axis.
	ParamIntensity = "scenario-intensity"
)

// numeric returns the core.Params row named name. A spec's value must pass
// its Check: a cell runs exactly the value its label shows.
func numeric(name string) (core.Param, bool) {
	i := slices.IndexFunc(core.Params, func(p core.Param) bool { return p.Name == name })
	if i < 0 {
		return core.Param{}, false
	}
	return core.Params[i], true
}

// Params lists the accepted axis parameter names, sorted — the numeric
// configuration parameters of core.Params plus the scenario
// name/intensity pair.
func Params() []string {
	out := []string{ParamScenario, ParamIntensity}
	for _, p := range core.Params {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// Spec is a declarative sweep campaign: the cartesian grid of its axes,
// run for every protocol in the set, replicated trials-per-cell times.
type Spec struct {
	// Name identifies the campaign (registry key, report label).
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Protocols is the protocol set run in every cell; empty means the
	// paper's four baselines.
	Protocols []string `json:"protocols,omitempty"`
	// Warmup and Queries are the per-run warmup and measured query counts.
	Warmup  int `json:"warmup"`
	Queries int `json:"queries"`
	// Trials is the replication count per cell (<= 0 means 1). Trial t of
	// cell c runs under sim.TrialSeed(CellSeed(seed, c), t).
	Trials int `json:"trials,omitempty"`
	// Seed roots the campaign; 0 inherits the base configuration's seed.
	Seed int64 `json:"seed,omitempty"`
	// Scenario optionally names a built-in scenario every cell runs under
	// (a scenario axis overrides it per cell); required by a
	// scenario-intensity axis.
	Scenario string `json:"scenario,omitempty"`
	// Base overrides numeric configuration parameters for every cell
	// before the axes apply — e.g. {"peers": 500} pins the overlay size of
	// a cache sweep.
	Base map[string]float64 `json:"base,omitempty"`
	// Axes span the grid; cells enumerate their cartesian product with the
	// last axis varying fastest.
	Axes []Axis `json:"axes"`
	// Figures names the metrics (Metrics keys) the campaign's report
	// tabulates against the first axis; empty means success, msgs, rtt.
	Figures []string `json:"figures,omitempty"`
}

// Axis is one swept parameter: a numeric value list, or — for the
// "scenario" parameter — a list of built-in scenario names.
type Axis struct {
	// Param names a core.Params row or one of the Param… constants.
	Param string `json:"param"`
	// Values holds the numeric axis points, in sweep order.
	Values []float64 `json:"values,omitempty"`
	// Scenarios holds the scenario-name axis points (Param "scenario").
	Scenarios []string `json:"scenarios,omitempty"`
}

// points returns the axis length.
func (a Axis) points() int {
	if a.Param == ParamScenario {
		return len(a.Scenarios)
	}
	return len(a.Values)
}

// ProtocolNames returns the campaign's protocol set (default: the four
// baselines, in figure order).
func (s *Spec) ProtocolNames() []string {
	if len(s.Protocols) > 0 {
		return s.Protocols
	}
	var names []string
	for _, b := range protocol.Baselines() {
		names = append(names, b.Name())
	}
	return names
}

// FigureKeys returns the metrics the campaign's report tabulates (default:
// the paper's three figures).
func (s *Spec) FigureKeys() []string {
	if len(s.Figures) > 0 {
		return s.Figures
	}
	return []string{"success", "msgs", "rtt"}
}

// Validate checks the spec's internal consistency: a name, positive query
// counts, known protocols named once each, at least one axis with at least
// one point per axis, no parameter or point named twice, resolvable
// scenario names, and an intensity axis only alongside a scenario.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("sweep: nil spec")
	}
	if s.Name == "" {
		return fmt.Errorf("sweep: spec needs a name")
	}
	if s.Queries <= 0 {
		return fmt.Errorf("sweep %q: queries %d must be positive", s.Name, s.Queries)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("sweep %q: warmup %d must be non-negative", s.Name, s.Warmup)
	}
	for _, p := range s.ProtocolNames() {
		if _, ok := protocol.ByName(p); !ok {
			return fmt.Errorf("sweep %q: unknown protocol %q", s.Name, p)
		}
	}
	if p, ok := repeated(s.Protocols); ok {
		return fmt.Errorf("sweep %q: protocol %q is listed twice", s.Name, p)
	}
	for _, key := range s.Figures {
		if _, ok := metricOf(key); !ok {
			return fmt.Errorf("sweep %q: unknown figure metric %q (have %s)", s.Name, key, strings.Join(Metrics(), ", "))
		}
	}
	if s.Scenario != "" {
		if _, ok := scenario.Lookup(s.Scenario); !ok {
			return fmt.Errorf("sweep %q: unknown scenario %q", s.Name, s.Scenario)
		}
	}
	for param, v := range s.Base {
		p, ok := numeric(param)
		if !ok {
			return fmt.Errorf("sweep %q: base override %q is not a numeric parameter", s.Name, param)
		}
		if err := p.Check(v); err != nil {
			return fmt.Errorf("sweep %q: base override %q: %w", s.Name, param, err)
		}
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep %q: needs at least one axis", s.Name)
	}
	seen := map[string]bool{}
	for i, a := range s.Axes {
		if seen[a.Param] {
			return fmt.Errorf("sweep %q: axis %d duplicates parameter %q", s.Name, i, a.Param)
		}
		seen[a.Param] = true
		switch {
		case a.Param == ParamScenario:
			if len(a.Scenarios) == 0 {
				return fmt.Errorf("sweep %q: scenario axis needs scenario names", s.Name)
			}
			if len(a.Values) > 0 {
				return fmt.Errorf("sweep %q: scenario axis takes names, not values", s.Name)
			}
			for _, name := range a.Scenarios {
				if _, ok := scenario.Lookup(name); !ok {
					return fmt.Errorf("sweep %q: unknown scenario %q on the scenario axis", s.Name, name)
				}
			}
			if name, ok := repeated(a.Scenarios); ok {
				return fmt.Errorf("sweep %q: scenario axis lists %q twice", s.Name, name)
			}
		case a.Param == ParamIntensity:
			if len(a.Values) == 0 {
				return fmt.Errorf("sweep %q: axis %q needs values", s.Name, a.Param)
			}
			for _, v := range a.Values {
				if v < 0 {
					return fmt.Errorf("sweep %q: scenario intensities must be non-negative", s.Name)
				}
			}
		default:
			p, ok := numeric(a.Param)
			if !ok {
				return fmt.Errorf("sweep %q: axis %d has unknown parameter %q (have %v)",
					s.Name, i, a.Param, Params())
			}
			if len(a.Values) == 0 {
				return fmt.Errorf("sweep %q: axis %q needs values", s.Name, a.Param)
			}
			for _, v := range a.Values {
				if err := p.Check(v); err != nil {
					return fmt.Errorf("sweep %q: axis %q: %w", s.Name, a.Param, err)
				}
			}
		}
		if v, ok := repeated(a.Values); ok {
			return fmt.Errorf("sweep %q: axis %q lists value %g twice", s.Name, a.Param, v)
		}
	}
	if seen[ParamIntensity] && s.Scenario == "" && !seen[ParamScenario] {
		return fmt.Errorf("sweep %q: a scenario-intensity axis needs a scenario (spec-level or a scenario axis)", s.Name)
	}
	return nil
}

// repeated returns the first element of xs that occurs earlier in xs.
func repeated[T comparable](xs []T) (T, bool) {
	for i, x := range xs {
		if slices.Contains(xs[:i], x) {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// NumCells returns the grid size (the product of the axis lengths).
func (s *Spec) NumCells() int {
	n := 1
	for _, a := range s.Axes {
		n *= a.points()
	}
	return n
}

// Coordinate is one cell's position along one axis.
type Coordinate struct {
	// Param is the axis parameter.
	Param string
	// Value is the numeric axis value (unused for the scenario axis).
	Value float64
	// Scenario is the scenario-axis value (Param "scenario" only).
	Scenario string
}

// String renders the coordinate as "param=value".
func (c Coordinate) String() string {
	if c.Param == ParamScenario {
		return fmt.Sprintf("%s=%s", c.Param, c.Scenario)
	}
	return fmt.Sprintf("%s=%g", c.Param, c.Value)
}

// Cell is one grid point: its flat index in expansion order, its derived
// root seed, and its coordinates in axis order.
type Cell struct {
	// Index is the cell's position in the row-major grid expansion (last
	// axis fastest).
	Index int
	// Seed is CellSeed(campaign seed, Index): the root every trial of this
	// cell derives from.
	Seed int64
	// Coords locates the cell, one entry per axis in spec order.
	Coords []Coordinate
}

// Label renders the cell's coordinates as "p1=v1 p2=v2".
func (c Cell) Label() string {
	out := ""
	for i, co := range c.Coords {
		if i > 0 {
			out += " "
		}
		out += co.String()
	}
	return out
}

// Cells expands the grid in deterministic row-major order (axis 0 slowest,
// last axis fastest) and derives each cell's root seed from the campaign
// root. The expansion order is part of the determinism contract: cell
// indexes — and therefore seeds — depend only on the spec's axes.
func (s *Spec) Cells(root int64) []Cell {
	n := s.NumCells()
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		coords := make([]Coordinate, len(s.Axes))
		rem := i
		for a := len(s.Axes) - 1; a >= 0; a-- {
			axis := s.Axes[a]
			p := axis.points()
			k := rem % p
			rem /= p
			co := Coordinate{Param: axis.Param}
			if axis.Param == ParamScenario {
				co.Scenario = axis.Scenarios[k]
			} else {
				co.Value = axis.Values[k]
			}
			coords[a] = co
		}
		cells[i] = Cell{Index: i, Seed: CellSeed(root, i), Coords: coords}
	}
	return cells
}

// CellSeed derives grid cell `cell`'s root seed from the campaign root.
// Cell 0 keeps the root unchanged — the first cell of a campaign is
// bit-for-bit a plain replicated comparison at the campaign seed — and later cells
// push the pair through a SplitMix64-style finalizer (with a different
// multiplier than sim.TrialSeed, so cell and trial derivations never
// alias) landing neighbouring cells in decorrelated seed-space regions.
// Trial t of the cell then runs under sim.TrialSeed(CellSeed(root, cell),
// t), which is exactly the seed a standalone replicated comparison of the
// cell's configuration would use.
func CellSeed(root int64, cell int) int64 {
	if cell == 0 {
		return root
	}
	z := uint64(root) + uint64(cell)*0xd1342543de82ef95
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0xd1342543de82ef95
	}
	return int64(z)
}

// cellConfig lowers one cell of a validated spec onto the base
// configuration: base overrides first (each parameter touches its own
// field, so map order is immaterial), then the cell's coordinates, then
// the scenario selection (name axis over spec-level name) scaled by the
// intensity coordinate. The returned config carries the cell seed, from
// which core.RunGrid derives each trial's; RunMeasured resolves its
// scenario phase grid.
func (s *Spec) cellConfig(base core.Config, c Cell) core.Config {
	cfg := base
	cfg.Seed = c.Seed
	for name, v := range s.Base {
		p, _ := numeric(name)
		p.Set(&cfg, v)
	}
	scenName := s.Scenario
	intensity := -1.0
	for _, co := range c.Coords {
		switch co.Param {
		case ParamScenario:
			scenName = co.Scenario
		case ParamIntensity:
			intensity = co.Value
		default:
			p, _ := numeric(co.Param)
			p.Set(&cfg, co.Value)
		}
	}
	if scenName != "" {
		cfg.Scenario, _ = scenario.Lookup(scenName)
	}
	if intensity >= 0 {
		cfg.Scenario = cfg.Scenario.ScaleIntensity(intensity)
	}
	return cfg
}

// ParseSpec decodes and validates a JSON campaign with the strict spec
// loader scenario.DecodeSpec.
func ParseSpec(data []byte) (*Spec, error) { return scenario.DecodeSpec[Spec]("sweep", data) }

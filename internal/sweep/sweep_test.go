package sweep

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// tinySpec is the 2×2×2 determinism fixture: a 2-axis grid (2 peers
// values × 2 cache capacities) replicated over 2 trials, under a phased
// scenario so the per-phase aggregation path is exercised too.
func tinySpec() *Spec {
	return &Spec{
		Name:      "tiny",
		Warmup:    40,
		Queries:   120,
		Trials:    2,
		Protocols: []string{"Dicas", "Locaware"},
		Scenario:  "churn-waves",
		Axes: []Axis{
			{Param: ParamPeers, Values: []float64{60, 90}},
			{Param: "cache-filenames", Values: []float64{5, 50}},
		},
	}
}

// runGrid executes the whole grid the way every campaign entry point does:
// one plan, every cell index through Plan.RunCells.
func runGrid(base core.Config, s *Spec, workers int) (*Campaign, error) {
	p, err := NewPlan(base, s)
	if err != nil {
		return nil, err
	}
	camp := p.NewCampaign()
	all := make([]int, p.NumCells())
	for i := range all {
		all[i] = i
	}
	err = p.RunCells(all, workers, func(cr *CellResult) { camp.Cells[cr.Index] = *cr })
	return camp, err
}

func TestCellSeed(t *testing.T) {
	for _, root := range []int64{1, 42, -7} {
		if got := CellSeed(root, 0); got != root {
			t.Fatalf("CellSeed(%d, 0) = %d, want identity", root, got)
		}
	}
	seen := map[int64]bool{}
	for cell := 0; cell < 100; cell++ {
		s := CellSeed(9, cell)
		if s2 := CellSeed(9, cell); s2 != s {
			t.Fatalf("CellSeed(9, %d) unstable: %d vs %d", cell, s, s2)
		}
		if seen[s] {
			t.Fatalf("CellSeed(9, %d) = %d collides", cell, s)
		}
		seen[s] = true
	}
	// Cell and trial derivations must not alias: otherwise cell c/trial 0
	// would share a world with cell 0/trial c.
	for i := 1; i < 50; i++ {
		if CellSeed(9, i) == sim.TrialSeed(9, i) {
			t.Fatalf("CellSeed and TrialSeed alias at index %d", i)
		}
	}
	// A campaign seeded neither by its spec nor by its base roots at 1.
	base := core.DefaultConfig()
	base.Seed = 0
	if p, err := NewPlan(base, tinySpec()); err != nil {
		t.Fatal(err)
	} else if p.r.cells[1].Seed != CellSeed(1, 1) {
		t.Fatalf("unseeded campaign: cell 1 seed %d, want CellSeed(1, 1)", p.r.cells[1].Seed)
	}
}

// TestExemplarIsTheCellsSlowestTrace: a traced campaign's exemplar is the
// slowest first trace of any of the cell's runs, the earliest (protocol,
// trial) winning a tie, as a fold over the cell's runs recomputes it.
func TestExemplarIsTheCellsSlowestTrace(t *testing.T) {
	base := core.DefaultConfig()
	base.TracePolicy = &trace.Policy{SlowestN: 1}
	camp, err := runGrid(base, tinySpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := NewPlan(base, tinySpec())
	r := plan.r
	for i, cell := range camp.Cells {
		var want *ExemplarTrace
		core.RunGrid(r.cellCfgs[i:i+1], r.behaviors, r.trials, r.spec.Warmup, r.spec.Queries, 1, func(_, proto int, runs []*core.RunResult) {
			for trial, run := range runs {
				if ex := exemplarOf(run, r.names[proto], trial); ex != nil && (want == nil || ex.LatencySeconds > want.LatencySeconds) {
					want = ex
				}
			}
		})
		if want == nil || !reflect.DeepEqual(cell.Exemplar, want) {
			t.Fatalf("cell %d exemplar %+v, want the slowest first trace %+v", i, cell.Exemplar, want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := tinySpec()
	base.Queries = 1 // the least a campaign may measure
	if err := base.Validate(); err != nil {
		t.Fatalf("tiny spec must validate: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Queries = 0 },
		func(s *Spec) { s.Warmup = -1 },
		func(s *Spec) { s.Protocols = []string{"Chord"} },
		func(s *Spec) { s.Scenario = "no-such-scenario" },
		func(s *Spec) { s.Figures = []string{"success", "latency"} },
		func(s *Spec) { s.Axes = nil },
		func(s *Spec) { s.Axes[0].Param = "peerz" },
		func(s *Spec) { s.Axes[0].Values = nil },
		func(s *Spec) { s.Axes[1].Param = s.Axes[0].Param },
		func(s *Spec) { s.Base = map[string]float64{"scenario": 1} },
		func(s *Spec) {
			s.Axes = append(s.Axes, Axis{Param: ParamScenario, Scenarios: []string{"nope"}})
		},
		func(s *Spec) {
			s.Scenario = ""
			s.Axes = []Axis{{Param: ParamIntensity, Values: []float64{1}}}
		},
		func(s *Spec) {
			s.Axes = []Axis{{Param: ParamIntensity, Values: []float64{-1}}}
		},
		func(s *Spec) { s.Axes = append(s.Axes, Axis{Param: ParamScenario}) },
		func(s *Spec) {
			s.Axes = append(s.Axes, Axis{Param: ParamScenario, Scenarios: []string{"baseline"}, Values: []float64{1}})
		},
		func(s *Spec) { s.Axes = append(s.Axes, Axis{Param: ParamIntensity}) },
	}
	// A protocol or an axis point named twice would run a cell twice, and
	// the figures would show it once: refused, naming spec and repeat.
	repeats := map[string]func(*Spec){
		`protocol "Locaware" is listed twice`: func(s *Spec) { s.Protocols = []string{"Locaware", "Dicas", "Locaware"} },
		`axis "peers" lists value 60 twice`:   func(s *Spec) { s.Axes[0].Values = []float64{60, 90, 60} },
		`scenario axis lists "flashcrowd" twice`: func(s *Spec) {
			s.Axes = append(s.Axes, Axis{Param: ParamScenario, Scenarios: []string{"flashcrowd", "flashcrowd"}})
		},
	}
	for want, mutate := range repeats {
		s := tinySpec()
		mutate(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `sweep "tiny": `+want) {
			t.Fatalf("repeat must fail validation with %q, got %v", want, err)
		}
	}
	for i, mutate := range bad {
		s := tinySpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("mutation %d must fail validation", i)
		}
	}
}

// TestNumericValuesRunAsLabelled locks the "a cell runs what its label
// says" contract for every numeric parameter: a non-positive value, or a
// fractional one on an integer-valued parameter, is rejected on an axis and
// in the base overrides with an error naming the campaign, the parameter
// and the value — nothing beneath a spec substitutes a default.
func TestNumericValuesRunAsLabelled(t *testing.T) {
	for _, p := range core.Params {
		param := p.Name
		for _, tc := range []struct {
			v  float64
			ok bool
		}{{3, true}, {0, false}, {-2, false}, {math.NaN(), false}, {2.5, !p.Integer},
			{math.MaxInt32 + 1, !p.Integer}, {1e19, !p.Integer}} {
			specs := map[string]*Spec{
				"axis": {Name: "lbl", Queries: 10, Axes: []Axis{{Param: param, Values: []float64{4, tc.v}}}},
				"base": {Name: "lbl", Queries: 10, Base: map[string]float64{param: tc.v},
					Axes: []Axis{{Param: ParamScenario, Scenarios: []string{"flashcrowd"}}}},
			}
			for where, s := range specs {
				err := s.Validate()
				if tc.ok != (err == nil) {
					t.Fatalf("%s %s=%v: accepted=%v, want %v (%v)", where, param, tc.v, err == nil, tc.ok, err)
				}
				if err != nil && !(strings.Contains(err.Error(), `"lbl"`) &&
					strings.Contains(err.Error(), fmt.Sprintf("%q", param)) &&
					strings.Contains(err.Error(), fmt.Sprintf("%g", tc.v))) {
					t.Fatalf("%s %s=%v: error does not name campaign, parameter and value: %v", where, param, tc.v, err)
				}
				// The JSON loader goes through the same gate (NaN has no JSON form).
				if data, jerr := json.Marshal(s); jerr == nil {
					if _, err := ParseSpec(data); tc.ok != (err == nil) {
						t.Fatalf("ParseSpec(%s): accepted=%v, want %v (%v)", data, err == nil, tc.ok, err)
					}
				}
			}
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","queries":10,"axes":[{"param":"peers","values":[10]}],"warmpu":3}`)); err == nil {
		t.Fatal("typo'd field must be rejected")
	}
}

// TestParseSpecRejectsTrailingData: a spec file holds one spec. A second
// value or stray bytes after it are refused, not silently ignored; trailing
// whitespace is not data.
func TestParseSpecRejectsTrailingData(t *testing.T) {
	const valid = `{"name":"x","queries":10,"axes":[{"param":"peers","values":[10]}]}`
	if _, err := ParseSpec([]byte(valid + "\n")); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	for _, tail := range []string{`{"name":"second"} trailing garbage`, `xyz`} {
		if _, err := ParseSpec([]byte(valid + tail)); err == nil || !strings.Contains(err.Error(), "after the spec") {
			t.Errorf("spec followed by %q: %v", tail, err)
		}
	}
}

// TestSpecJSONRoundTrip: every built-in campaign round-trips through JSON,
// and the registry's JSON is pinned in testdata/builtins.json, so a
// campaign that changes what it runs changes that file deliberately.
func TestSpecJSONRoundTrip(t *testing.T) {
	all, _ := json.MarshalIndent(Builtins(), "", "  ")
	golden := filepath.Join("testdata", "builtins.json")
	if *updateGolden && os.WriteFile(golden, all, 0o644) != nil {
		t.Fatalf("writing %s", golden)
	}
	if want, err := os.ReadFile(golden); err != nil || string(want) != string(all) {
		t.Errorf("the built-in campaigns differ from %s (%v); run with -update after a deliberate change", golden, err)
	}
	for _, s := range Builtins() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("builtin %q does not round-trip: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("builtin %q drifted over JSON round-trip", s.Name)
		}
	}
}

func TestBuiltinsResolve(t *testing.T) {
	if d, one := (&Spec{}).FigureKeys(), (&Spec{Figures: []string{"hops"}}).FigureKeys(); len(d) != 3 || d[0] != "success" || len(one) != 1 {
		t.Fatalf("figure keys %v by default and %v for one figure, want the paper's three and that one", d, one)
	}
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Fatalf("builtin %q does not validate: %v", s.Name, err)
		}
		p, err := NewPlan(core.DefaultConfig(), s)
		if err != nil {
			t.Fatalf("builtin %q does not plan: %v", s.Name, err)
		}
		if p.NumCells() != s.NumCells() || len(p.Hash()) != 64 {
			t.Fatalf("builtin %q planned %d cells (spec %d), hash %q", s.Name, p.NumCells(), s.NumCells(), p.Hash())
		}
		for _, key := range s.FigureKeys() {
			if _, ok := MetricSummary(core.TrialCell{}, key); !ok {
				t.Fatalf("builtin %q tabulates unknown metric %q", s.Name, key)
			}
			if MetricTitle(key) == "" {
				t.Fatalf("builtin %q: metric %q has no title", s.Name, key)
			}
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestCellsExpansionOrder(t *testing.T) {
	s := &Spec{
		Name: "order", Queries: 10,
		Axes: []Axis{
			{Param: ParamPeers, Values: []float64{100, 200}},
			{Param: "ttl", Values: []float64{3, 5, 7}},
		},
	}
	cells := s.Cells(1)
	if len(cells) != 6 || s.NumCells() != 6 {
		t.Fatalf("2×3 grid expanded to %d cells", len(cells))
	}
	// Row-major: axis 0 slowest, axis 1 fastest.
	want := [][2]float64{{100, 3}, {100, 5}, {100, 7}, {200, 3}, {200, 5}, {200, 7}}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if label := fmt.Sprintf("peers=%g ttl=%g", want[i][0], want[i][1]); c.Label() != label {
			t.Fatalf("cell %d is labelled %q, want %q", i, c.Label(), label)
		}
		if c.Coords[0].Value != want[i][0] || c.Coords[1].Value != want[i][1] {
			t.Fatalf("cell %d = %s, want peers=%g ttl=%g", i, c.Label(), want[i][0], want[i][1])
		}
		if c.Seed != CellSeed(1, i) {
			t.Fatalf("cell %d seed drifted", i)
		}
	}
}

func TestScenarioAxisConfig(t *testing.T) {
	s := &Spec{
		Name: "scen", Queries: 100, Warmup: 10,
		Protocols: []string{"Locaware"},
		Axes: []Axis{
			{Param: ParamScenario, Scenarios: []string{"baseline", "steady-churn"}},
			{Param: ParamIntensity, Values: []float64{0.5, 1}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := resolve(core.DefaultConfig(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(r.cells))
	}
	for i, cfg := range r.cellCfgs {
		if cfg.Scenario == nil {
			t.Fatalf("cell %d lost its scenario", i)
		}
	}
	if r.cellCfgs[0].Scenario.Name != "baseline" || r.cellCfgs[2].Scenario.Name != "steady-churn" {
		t.Fatalf("scenario axis misapplied: %q / %q",
			r.cellCfgs[0].Scenario.Name, r.cellCfgs[2].Scenario.Name)
	}
	// Intensity 0.5 must halve the steady-churn probabilities.
	full := r.cellCfgs[3].Scenario.Phases[0].Churn
	half := r.cellCfgs[2].Scenario.Phases[0].Churn
	if half.LeaveProb != full.LeaveProb/2 || half.JoinProb != full.JoinProb/2 {
		t.Fatalf("intensity scaling misapplied: half=%+v full=%+v", half, full)
	}
	// Intensity 0, an axis of one value, is applied: the wave phase's churn stops.
	zero := tinySpec()
	zero.Axes = []Axis{{Param: ParamIntensity, Values: []float64{0}}}
	if r, err := resolve(core.DefaultConfig(), zero); err != nil || r.cellCfgs[0].Scenario.Phases[1].Churn.LeaveProb != 0 {
		t.Fatalf("intensity 0 left the wave's churn on (%v)", err)
	}
}

// TestGoldenSweepCSV locks the tiny 2×2×2 campaign's full tidy CSV and its
// per-phase CSV. Any refactor that drifts a single cell or phase value
// breaks this byte-for-byte comparison; regenerate deliberately with
// `go test ./internal/sweep -run TestGoldenSweepCSV -update`.
func TestGoldenSweepCSV(t *testing.T) {
	camp, err := runGrid(core.DefaultConfig(), tinySpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{"golden_sweep_2x2x2.csv": camp.CSV(), "golden_sweep_2x2x2_phases.csv": camp.PhaseCSV()} {
		path := filepath.Join("testdata", file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Fatalf("sweep CSV drifted from golden file %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}
}

// TestSweepWorkerInvariance asserts the determinism contract's core
// clause: the campaign's exported bytes are identical at any worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	spec := tinySpec()
	seq, err := runGrid(core.DefaultConfig(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runGrid(core.DefaultConfig(), spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq.CSV() != par.CSV() {
		t.Fatal("cell CSV differs between 1 and 8 workers")
	}
	if seq.PhaseCSV() != par.PhaseCSV() {
		t.Fatal("phase CSV differs between 1 and 8 workers")
	}
}

// TestSweepCellIsolation locks the subset-reproducibility contract: one
// cell re-run in isolation (Plan.RunCellAt) reproduces the full campaign's
// values bit for bit, and both equal a standalone replicated comparison
// at the cell's derived seed and configuration — an independent reference
// for the streaming fold, which never holds a cell's runs together.
func TestSweepCellIsolation(t *testing.T) {
	// shrunk cuts a built-in study down to test size; nonZero names the
	// run-level figure metric the study exists to show.
	shrunk := func(name string) *Spec {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("no built-in %q", name)
		}
		s.Warmup, s.Queries, s.Trials = 40, 120, 2
		s.Base = map[string]float64{ParamPeers: 90}
		return s
	}
	for _, tc := range []struct {
		spec    *Spec
		nonZero string
	}{
		{tinySpec(), ""},
		{shrunk("bloom-sweep"), "ctlkbits"},
		{shrunk("group-sweep"), "cached"},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) { checkCellIsolation(t, tc.spec, tc.nonZero) })
	}
}

func checkCellIsolation(t *testing.T, spec *Spec, nonZero string) {
	camp, err := runGrid(core.DefaultConfig(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	const cell = 2 // mid-grid, seed != campaign root
	plan, err := NewPlan(core.DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := plan.RunCellAt(cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(camp.Cells[cell], *iso) {
		t.Fatalf("isolated cell re-run drifted from the full grid:\nfull: %+v\niso:  %+v",
			camp.Cells[cell], *iso)
	}

	// The standalone path: the cell's lowered configuration at its derived
	// seed, through the core comparison runner.
	r := plan.r
	cfg := r.cellCfgs[cell]
	cfg.Seed = camp.Cells[cell].Seed
	tc := core.RunTrialComparison(cfg, r.behaviors, spec.Trials, spec.Warmup, spec.Queries, 2)
	for p, grid := range camp.Cells[cell].Protocols {
		solo, name := tc.Cells[p], grid.Protocol
		solo.Runs = nil
		if !reflect.DeepEqual(solo, grid) {
			t.Fatalf("standalone comparison drifted from grid cell for %s:\ngrid: %+v\nsolo: %+v", name, grid, solo)
		}
		if nonZero == "" {
			continue
		}
		got, ok := MetricSummary(grid, nonZero)
		if !ok || got.N != spec.Trials {
			t.Fatalf("%s %s = %+v (known %v)", name, nonZero, got, ok)
		}
		if name == "Locaware" && got.Mean <= 0 {
			t.Fatalf("%s %s estimate is %g; the study has nothing to tabulate", name, nonZero, got.Mean)
		}
	}
	if nonZero != "" {
		if _, err := camp.FigureTable(nonZero, ""); err != nil {
			t.Fatalf("figure table for %s: %v", nonZero, err)
		}
	}
}

func TestRunCellOutOfRange(t *testing.T) {
	p, err := NewPlan(core.DefaultConfig(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []int{-1, 4, 99} {
		if cr, err := p.RunCellAt(cell, 1); err == nil || cr != nil {
			t.Fatalf("out-of-range cell %d must error, got %+v", cell, cr)
		}
	}
}

func TestFigureExports(t *testing.T) {
	camp, err := runGrid(core.DefaultConfig(), tinySpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	series, err := camp.FigureSeries("success", ParamPeers)
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 2 fixed cache values = 4 curves, 2 points each.
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	for _, s := range series {
		if len(s.Xs) != 2 || !s.HasErrs() {
			t.Fatalf("series %q: %d points, errs=%v", s.Name, len(s.Xs), s.HasErrs())
		}
		if s.Xs[0] != 60 || s.Xs[1] != 90 {
			t.Fatalf("series %q x grid = %v", s.Name, s.Xs)
		}
	}
	if _, err := camp.FigureSeries("nope", ""); err == nil {
		t.Fatal("unknown metric must error")
	}
	if _, err := camp.FigureSeries("success", "bloom-bits"); err == nil {
		t.Fatal("unknown axis must error")
	}
	table, err := camp.FigureTable("msgs", "")
	if err != nil || !strings.Contains(table, "peers") {
		t.Fatalf("figure table: %v\n%s", err, table)
	}
	csv, err := camp.FigureCSV("rtt", "cache-filenames")
	if err != nil || !strings.HasPrefix(csv, "cache-filenames,") {
		t.Fatalf("figure csv: %v\n%s", err, csv)
	}

	// A single-trial scenario axis: the value's position is x, the name
	// its CSV coordinate, and the points carry no error bars.
	scen := &Campaign{Spec: &Spec{Axes: []Axis{{Param: ParamScenario, Scenarios: []string{"baseline", "flashcrowd"}}}}, Trials: 1}
	for i, name := range scen.Spec.Axes[0].Scenarios {
		scen.Cells = append(scen.Cells, CellResult{Cell: Cell{Index: i, Coords: []Coordinate{{Param: ParamScenario, Scenario: name}}},
			Protocols: []core.TrialCell{{Protocol: "Locaware"}}})
	}
	series, _ = scen.FigureSeries("success", "")
	if len(series) != 1 || !reflect.DeepEqual(series[0].Xs, []float64{0, 1}) || series[0].HasErrs() {
		t.Fatalf("scenario-axis series %+v, want one curve at x 0 and 1 without error bars", series)
	}
	if !strings.Contains(scen.CSV(), "\n1,flashcrowd,Locaware,1,") {
		t.Fatalf("scenario-axis CSV does not name the scenario:\n%s", scen.CSV())
	}
	if cps := scen.CellsPerSecond(); cps != 0 {
		t.Fatalf("no elapsed time: %g cells/s, want 0", cps)
	}
	if scen.Elapsed = time.Nanosecond; scen.CellsPerSecond() < 1e9 {
		t.Fatalf("2 cells in 1ns: %g cells/s, want 2e9", scen.CellsPerSecond())
	}
}

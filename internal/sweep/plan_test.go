package sweep

import (
	"reflect"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/trace"
)

// TestPlanHash locks the content-addressing contract: the hash is stable
// for identical (base, spec) inputs and moves whenever anything that
// could change a cell's bytes moves — spec shape, seed, trials,
// protocols, or the base configuration.
func TestPlanHash(t *testing.T) {
	base := core.DefaultConfig()
	p1, err := NewPlan(base, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(base, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("hash unstable: %s vs %s", p1.Hash(), p2.Hash())
	}
	if len(p1.Hash()) != 64 {
		t.Fatalf("hash %q is not a sha256 hex digest", p1.Hash())
	}

	distinct := map[string]string{p1.Hash(): "baseline"}
	check := func(label string, base core.Config, s *Spec) {
		t.Helper()
		p, err := NewPlan(base, s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, ok := distinct[p.Hash()]; ok {
			t.Fatalf("%s collides with %s: %s", label, prev, p.Hash())
		}
		distinct[p.Hash()] = label
	}

	s := tinySpec()
	s.Seed = 99
	check("different seed", base, s)

	s = tinySpec()
	s.Trials = 3
	check("different trials", base, s)

	s = tinySpec()
	s.Protocols = []string{"Dicas"}
	check("different protocols", base, s)

	s = tinySpec()
	s.Axes[0].Values = []float64{60, 91}
	check("different axis values", base, s)

	b := base
	b.Protocol.TTL = 5
	check("different base TTL", b, tinySpec())
}

// TestPlanRejectsImpossibleCatalogue: a cell whose keyword pool cannot name
// its files fails at plan time, naming the cell's coordinates and both
// catalogue fields — from an axis and from a base override alike. Before
// the check such a cell wedged the worker that leased it. So does a pool
// wider than keywords spell at one width, which would otherwise be built
// for each of the cell's worlds.
func TestPlanRejectsImpossibleCatalogue(t *testing.T) {
	for where, tc := range map[string]struct {
		s    *Spec
		want []string
	}{
		"axis": {&Spec{Name: "pool", Queries: 10, Axes: []Axis{{Param: "keyword-pool", Values: []float64{20}}}},
			[]string{`"pool"`, "KeywordPool 20", "Files 3000", "keyword-pool=20"}},
		"base": {&Spec{Name: "pool", Queries: 10, Base: map[string]float64{"keyword-pool": 20},
			Axes: []Axis{{Param: "files", Values: []float64{1000, 3000}}}},
			[]string{`"pool"`, "KeywordPool 20", "Files 3000"}},
		"wide axis": {&Spec{Name: "pool", Queries: 10, Axes: []Axis{{Param: "keyword-pool", Values: []float64{9000, 2e9}}}},
			[]string{`"pool"`, "KeywordPool 2000000000"}},
		"landmarks": {&Spec{Name: "lm", Queries: 10, Axes: []Axis{{Param: "landmarks", Values: []float64{20, 21}}}},
			[]string{`"lm"`, "landmarks 21", "landmarks=21"}},
		"degree": {&Spec{Name: "deg", Queries: 10, Axes: []Axis{{Param: "avg-degree", Values: []float64{3, 0.5}}}},
			[]string{`"deg"`, "avg-degree 0.5", "avg-degree=0.5"}},
		"shares": {&Spec{Name: "fpp", Queries: 10, Base: map[string]float64{"files": 10},
			Axes: []Axis{{Param: "files-per-peer", Values: []float64{3, 11}}}},
			[]string{`"fpp"`, "files-per-peer 11 exceeds files 10", "files-per-peer=11"}},
	} {
		_, err := NewPlan(core.DefaultConfig(), tc.s)
		if err == nil {
			t.Fatalf("%s: impossible catalogue planned", where)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error does not name %s: %v", where, want, err)
			}
		}
	}
	// The base configuration passes the same gate as a facade run: a flight
	// recorder that keeps nothing is refused, not run trace-less.
	base := core.DefaultConfig()
	base.TracePolicy = &trace.Policy{}
	if _, err := NewPlan(base, tinySpec()); err == nil || !strings.Contains(err.Error(), "TracePolicy keeps nothing") {
		t.Fatalf("keep-nothing recorder: want a refusal naming TracePolicy, got %v", err)
	}
}

// TestPlanHashIgnoresAmbientDynamics asserts the campaign-owns-dynamics
// rule carries into the identity: an ambient scenario on the base
// configuration is cleared by resolve, so it must not move the hash either.
func TestPlanHashIgnoresAmbientDynamics(t *testing.T) {
	base := core.DefaultConfig()
	p1, err := NewPlan(base, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Scenario, _ = scenario.Lookup("steady-churn")
	p2, err := NewPlan(b, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatal("ambient scenario moved the campaign hash; resolve clears it, so the hash must too")
	}
}

// TestPlanRunCellsSubset locks the distributed-unit contract: any subset
// of cells run through Plan.RunCells reproduces the corresponding cells
// of a whole-grid run bit for bit, and sinks them in ascending subset order.
func TestPlanRunCellsSubset(t *testing.T) {
	base := core.DefaultConfig()
	spec := tinySpec()
	camp, err := runGrid(base, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{1, 3}
	var got []*CellResult
	if err := p.RunCells(subset, 4, func(cr *CellResult) { got = append(got, cr) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(subset) {
		t.Fatalf("sank %d cells, want %d", len(got), len(subset))
	}
	for i, cr := range got {
		if cr.Index != subset[i] {
			t.Fatalf("sink order: position %d got cell %d, want %d", i, cr.Index, subset[i])
		}
		if !reflect.DeepEqual(*cr, camp.Cells[cr.Index]) {
			t.Fatalf("subset cell %d drifted from the full run:\nsubset: %+v\nfull:   %+v",
				cr.Index, *cr, camp.Cells[cr.Index])
		}
	}

	// The single-cell wrapper is the worker's unit of work.
	cr, err := p.RunCellAt(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cr, camp.Cells[2]) {
		t.Fatal("RunCellAt drifted from the full run")
	}

	if err := p.RunCells([]int{7}, 1, func(*CellResult) {}); err == nil {
		t.Fatal("out-of-range subset must error")
	}
}

// TestPlanVerifyCell exercises the integrity checks a deserialized cell
// passes through before being folded into a campaign.
func TestPlanVerifyCell(t *testing.T) {
	base := core.DefaultConfig()
	p, err := NewPlan(base, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := p.RunCellAt(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyCell(cr); err != nil {
		t.Fatalf("genuine cell must verify: %v", err)
	}
	bad := []struct {
		label  string
		mutate func(*CellResult)
	}{
		{"nil protocols", func(c *CellResult) { c.Protocols = nil }},
		{"wrong seed", func(c *CellResult) { c.Seed++ }},
		{"out of range", func(c *CellResult) { c.Index = 99 }},
		{"wrong coordinates", func(c *CellResult) { c.Coords[0].Value = 1234 }},
		{"one coordinate spelling the whole label", func(c *CellResult) {
			c.Coords = []Coordinate{{Param: "peers=60 cache-filenames", Value: 50}}
		}},
		{"wrong protocol name", func(c *CellResult) { c.Protocols[0].Protocol = "Chord" }},
		{"wrong trial pool", func(c *CellResult) { c.Protocols[1].Summary.SuccessRate.N = 7 }},
	}
	for _, tc := range bad {
		clone := *cr
		clone.Coords = append([]Coordinate(nil), cr.Coords...)
		clone.Protocols = append([]ProtocolCell(nil), cr.Protocols...)
		tc.mutate(&clone)
		if err := p.VerifyCell(&clone); err == nil {
			t.Fatalf("%s must fail verification", tc.label)
		}
	}
	if err := p.VerifyCell(nil); err == nil {
		t.Fatal("nil cell must fail verification")
	}
}

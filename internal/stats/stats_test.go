package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !almost(s.Mean, 5) {
		t.Fatalf("summary = %+v", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Sample stddev of this classic set is ~2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.StdDev != 0 || s.CI95() != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	ci := s.CI95()
	if ci <= 0 || ci > s.StdDev {
		t.Fatalf("ci = %v", ci)
	}
}

func TestRelativeChange(t *testing.T) {
	if !almost(RelativeChange(100, 86), -0.14) {
		t.Fatalf("got %v", RelativeChange(100, 86))
	}
	if RelativeChange(0, 5) != 0 {
		t.Fatal("zero denominator not guarded")
	}
}

// one is a point that pooled a single trial; two pools a pair.
func one(y float64) Summary { return Summary{N: 1, Mean: y} }

var two = Summarize([]float64{11, 13})

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "locaware"}
	if len(s.Xs) != 0 || s.HasErrs() {
		t.Fatal("empty series accessors")
	}
	s.Add(100, one(1.5))
	s.Add(200, one(2.5))
	if len(s.Xs) != 2 || s.Xs[1] != 200 || s.Ys[1] != 2.5 || s.HasErrs() {
		t.Fatalf("series = %+v", s)
	}
}

func TestTableAndCSV(t *testing.T) {
	a, b := &Series{Name: "flooding"}, &Series{Name: "locaware"}
	for _, x := range []float64{100, 200, 300} {
		a.Add(x, one(x/10))
		b.Add(x, one(x/20))
	}
	tbl := Table("queries", []*Series{a, b})
	if !strings.Contains(tbl, "flooding") || !strings.Contains(tbl, "locaware") {
		t.Fatalf("table missing headers:\n%s", tbl)
	}
	if !strings.Contains(tbl, "100") || !strings.Contains(tbl, "10.000") || strings.Contains(tbl, "±") {
		t.Fatalf("single-trial table wants bare means:\n%s", tbl)
	}
	csv := CSV("queries", []*Series{a, b})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "queries,flooding,locaware" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "100,10,5" {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestTableMismatchedGrids(t *testing.T) {
	a, b := &Series{Name: "a"}, &Series{Name: "b"}
	a.Add(100, one(1))
	b.Add(200, two)
	tbl := Table("x", []*Series{a, b})
	if !strings.Contains(tbl, "-") {
		t.Fatalf("missing blank cell marker:\n%s", tbl)
	}
	if csv := CSV("x", []*Series{a, b}); csv != fmt.Sprintf("x,a,b,b_ci95\n100,1,,\n200,,12,%g\n", two.CI95()) {
		t.Fatalf("mismatched grids leave blank CSV cells:\n%s", csv)
	}
	if Table("x", nil) != "" {
		t.Fatal("empty input should render empty")
	}
}

// TestSeriesErrBars: one point pooling two trials gives the series error
// bars, and its point that pooled one trial renders ±0.000.
func TestSeriesErrBars(t *testing.T) {
	s := &Series{Name: "Locaware"}
	s.Add(10, one(0.5))
	s.Add(20, two)
	if !s.HasErrs() || len(s.Errs) != 2 || s.Errs[0] != 0 || s.Errs[1] != two.CI95() || two.CI95() == 0 {
		t.Fatalf("errs = %v", s.Errs)
	}
	tbl := Table("queries", []*Series{s})
	if !strings.Contains(tbl, "0.500±0.000") || !strings.Contains(tbl, "12.000±1.960") {
		t.Fatalf("table missing error bars:\n%s", tbl)
	}
	csv := CSV("queries", []*Series{s})
	if want := fmt.Sprintf("queries,Locaware,Locaware_ci95\n10,0.5,0\n20,12,%g\n", two.CI95()); csv != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", csv, want)
	}
}

// TestErrSeriesMixedWithPlain: in one CSV only the error-barred series
// gets a _ci95 column.
func TestErrSeriesMixedWithPlain(t *testing.T) {
	plain, errd := &Series{Name: "Flooding"}, &Series{Name: "Locaware"}
	plain.Add(10, one(400))
	errd.Add(10, two)
	csv := CSV("queries", []*Series{plain, errd, plain})
	if want := fmt.Sprintf("queries,Flooding,Locaware,Locaware_ci95,Flooding\n10,400,12,%g,400\n", two.CI95()); csv != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", csv, want)
	}
	tbl := Table("queries", []*Series{plain, errd})
	if !strings.Contains(tbl, "400.000") || strings.Contains(tbl, "400.000±") || !strings.Contains(tbl, "12.000±1.960") {
		t.Fatalf("table rows:\n%s", tbl)
	}
}

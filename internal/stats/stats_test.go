package stats

import (
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

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "locaware"}
	if len(s.Xs) != 0 || s.HasErrs() {
		t.Fatal("empty series accessors")
	}
	s.Add(100, 1.5)
	s.Add(200, 2.5)
	if len(s.Xs) != 2 || s.Xs[1] != 200 || s.Ys[1] != 2.5 || s.HasErrs() {
		t.Fatalf("series = %+v", s)
	}
}

func TestTableAndCSV(t *testing.T) {
	a := &Series{Name: "flooding"}
	b := &Series{Name: "locaware"}
	for _, x := range []float64{100, 200, 300} {
		a.Add(x, x/10)
		b.Add(x, x/20)
	}
	tbl := Table("queries", []*Series{a, b})
	if !strings.Contains(tbl, "flooding") || !strings.Contains(tbl, "locaware") {
		t.Fatalf("table missing headers:\n%s", tbl)
	}
	if !strings.Contains(tbl, "100") || !strings.Contains(tbl, "10.000") {
		t.Fatalf("table missing data:\n%s", tbl)
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
	a := &Series{Name: "a"}
	a.Add(100, 1)
	b := &Series{Name: "b"}
	b.Add(200, 2)
	tbl := Table("x", []*Series{a, b})
	if !strings.Contains(tbl, "-") {
		t.Fatalf("missing blank cell marker:\n%s", tbl)
	}
	if Table("x", nil) != "" {
		t.Fatal("empty input should render empty")
	}
}

func TestSeriesErrBars(t *testing.T) {
	s := &Series{Name: "Locaware"}
	s.Add(10, 0.5) // first point without an error bar
	s.AddErr(20, 0.6, 0.05)
	if !s.HasErrs() || len(s.Errs) != 2 || s.Errs[0] != 0 || s.Errs[1] != 0.05 {
		t.Fatalf("errs = %v", s.Errs)
	}
	tbl := Table("queries", []*Series{s})
	if !strings.Contains(tbl, "0.600±0.050") {
		t.Fatalf("table missing error bar:\n%s", tbl)
	}
	csv := CSV("queries", []*Series{s})
	if !strings.HasPrefix(csv, "queries,Locaware,Locaware_ci95\n") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "20,0.6,0.05") {
		t.Fatalf("csv missing error column:\n%s", csv)
	}
}

func TestErrSeriesMixedWithPlain(t *testing.T) {
	plain := &Series{Name: "Flooding"}
	plain.Add(10, 400)
	errd := &Series{Name: "Locaware"}
	errd.AddErr(10, 12, 1.5)
	csv := CSV("queries", []*Series{plain, errd})
	if !strings.HasPrefix(csv, "queries,Flooding,Locaware,Locaware_ci95\n") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "10,400,12,1.5") {
		t.Fatalf("csv rows:\n%s", csv)
	}
	tbl := Table("queries", []*Series{plain, errd})
	if !strings.Contains(tbl, "400.000") || !strings.Contains(tbl, "12.000±1.500") {
		t.Fatalf("table rows:\n%s", tbl)
	}
}

package stats

import (
	"fmt"
	"strings"
)

// Series is a named sequence of (x, y) points, the unit the figure
// regeneration harness prints (one Series per curve in a paper figure).
// Errs, when non-empty, holds a symmetric error half-width per point
// (e.g. a 95% CI across replicated trials) and is rendered as y±err.
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
	Errs []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// AddErr appends a point with a symmetric error half-width.
func (s *Series) AddErr(x, y, err float64) {
	s.Add(x, y)
	for len(s.Errs) < len(s.Xs)-1 {
		s.Errs = append(s.Errs, 0)
	}
	s.Errs = append(s.Errs, err)
}

// HasErrs reports whether the series carries error bars.
func (s *Series) HasErrs() bool { return len(s.Errs) > 0 }

// Table renders a set of series sharing the same x grid as an aligned
// text table with the given x-column header. Series with mismatched grids
// are rendered with blank cells.
func Table(xHeader string, series []*Series) string {
	if len(series) == 0 {
		return ""
	}
	// Collect the union x grid, preserving first-seen order.
	var grid []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.Xs {
			if !seen[x] {
				seen[x] = true
				grid = append(grid, x)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xHeader)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range grid {
		// %g keeps fractional x grids (intensity sweeps) readable and
		// renders integer grids exactly as %.0f did.
		fmt.Fprintf(&b, "%-12s", fmt.Sprintf("%g", x))
		for _, s := range series {
			y, e, ok := lookupPoint(s, x)
			switch {
			case !ok:
				fmt.Fprintf(&b, " %14s", "-")
			case s.HasErrs():
				fmt.Fprintf(&b, " %14s", fmt.Sprintf("%.3f±%.3f", y, e))
			default:
				fmt.Fprintf(&b, " %14.3f", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series set as comma-separated values with an x column.
// Series carrying error bars get a second <name>_ci95 column holding the
// half-width next to their value column.
func CSV(xHeader string, series []*Series) string {
	var b strings.Builder
	b.WriteString(xHeader)
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(s.Name)
		if s.HasErrs() {
			b.WriteString("," + s.Name + "_ci95")
		}
	}
	b.WriteByte('\n')
	var grid []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.Xs {
			if !seen[x] {
				seen[x] = true
				grid = append(grid, x)
			}
		}
	}
	for _, x := range grid {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			y, e, ok := lookupPoint(s, x)
			if ok {
				fmt.Fprintf(&b, ",%g", y)
			} else {
				b.WriteString(",")
			}
			if s.HasErrs() {
				if ok {
					fmt.Fprintf(&b, ",%g", e)
				} else {
					b.WriteString(",")
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookupPoint(s *Series, x float64) (y, err float64, ok bool) {
	for i, sx := range s.Xs {
		if sx == x {
			if i < len(s.Errs) {
				err = s.Errs[i]
			}
			return s.Ys[i], err, true
		}
	}
	return 0, 0, false
}

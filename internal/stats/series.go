package stats

import (
	"fmt"
	"strings"
)

// Series is a named sequence of (x, y) points, the unit the figure
// regeneration harness prints (one Series per curve in a paper figure).
// Errs holds each point's symmetric error half-width (the 95% CI across
// replicated trials), rendered as y±err once some point pooled more than
// one trial.
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
	Errs []float64
	bars bool
}

// Add appends the point (x, y's mean) with y's 95% CI half-width.
func (s *Series) Add(x float64, y Summary) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y.Mean)
	s.Errs = append(s.Errs, y.CI95())
	s.bars = s.bars || y.N > 1
}

// HasErrs reports whether the series carries error bars: whether some
// point pooled more than one trial.
func (s *Series) HasErrs() bool { return s.bars }

// grid is the union of the series' x values, in first-seen order.
func grid(series []*Series) []float64 {
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.Xs {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// Table renders a set of series sharing the same x grid as an aligned
// text table with the given x-column header. Series with mismatched grids
// are rendered with blank cells.
func Table(xHeader string, series []*Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xHeader)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range grid(series) {
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
	for _, x := range grid(series) {
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
			return s.Ys[i], s.Errs[i], true
		}
	}
	return
}

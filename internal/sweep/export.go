package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/stats"
)

// metric is one figure-exportable quantity of a cell: its key, the title
// a report heads its table with, and its selector on the cell's cross-trial
// summary.
type metric struct {
	key, title string
	of         func(*core.TrialSummary) stats.Summary
}

// runMetrics are the run-level summaries a cell carries beside the six
// query metrics: figure-exportable by key, but absent from the tidy CSVs,
// whose per-phase rows have no such value.
var runMetrics = []metric{
	{"ctlkbits", "Bloom gossip traffic (kbit)", func(s *core.TrialSummary) stats.Summary { return s.ControlKbits }},
	{"cached", "cached filenames (all response indexes)", func(s *core.TrialSummary) stats.Summary { return s.CachedFilenames }},
}

// Metrics lists the figure-exportable metric keys in presentation order:
// the query-metric set, then the run-level summaries.
func Metrics() []string {
	var keys []string
	for _, m := range metrics.Metrics {
		keys = append(keys, m.Key)
	}
	for _, m := range runMetrics {
		keys = append(keys, m.key)
	}
	return keys
}

// metricOf resolves a metric key, reporting whether it is known.
func metricOf(key string) (metric, bool) {
	if m, ok := metrics.MetricByKey(key); ok {
		return metric{m.Key, m.Title, func(s *core.TrialSummary) stats.Summary { return *m.Of(&s.PhaseStats) }}, true
	}
	for _, m := range runMetrics {
		if m.key == key {
			return m, true
		}
	}
	return metric{}, false
}

// MetricSummary selects one cross-trial summary from a protocol cell by
// metric key, reporting whether the key is known.
func MetricSummary(p core.TrialCell, key string) (stats.Summary, bool) {
	m, ok := metricOf(key)
	if !ok {
		return stats.Summary{}, false
	}
	return m.of(&p.Summary), true
}

// MetricTitle returns the human-readable name a report heads the metric's
// table with ("" for an unknown key).
func MetricTitle(key string) string {
	m, _ := metricOf(key)
	return m.title
}

// writeCoords appends a cell's axis-value columns to a tidy-CSV row.
func writeCoords(b *strings.Builder, cell CellResult) {
	for _, co := range cell.Coords {
		if co.Param == ParamScenario {
			b.WriteByte(',')
			b.WriteString(co.Scenario)
		} else {
			writeG(b, co.Value)
		}
	}
}

// writeMetrics appends the mean and 95% CI columns of every metric of one
// cross-trial window to a tidy-CSV row.
func writeMetrics(b *strings.Builder, ps *metrics.PhaseStats) {
	for _, m := range metrics.Metrics {
		s := m.Of(ps)
		writeG(b, s.Mean)
		writeG(b, s.CI95())
	}
}

// csvHeader renders the tidy-CSV header: the cell index, one column per
// axis parameter, the given row-identity columns, then a mean and a _ci95
// column per metric.
func (c *Campaign) csvHeader(b *strings.Builder, identity string) {
	b.WriteString("cell")
	for _, a := range c.Spec.Axes {
		b.WriteByte(',')
		b.WriteString(a.Param)
	}
	b.WriteString(identity)
	for _, m := range metrics.Metrics {
		fmt.Fprintf(b, ",%s,%s_ci95", m.Column, m.Column)
	}
	b.WriteByte('\n')
}

// writeG appends a comma and a float the way every sweep export formats
// one, as %g prints it: shortest round-trippable decimal, so files are
// stable across platforms and diffs stay readable. It formats on the stack.
func writeG(b *strings.Builder, v float64) {
	buf := [32]byte{','}
	b.Write(strconv.AppendFloat(buf[:1], v, 'g', -1, 64))
}

// CSV renders the campaign as one tidy table: a row per (cell × protocol)
// carrying the cell index, one column per axis parameter, the protocol,
// the trial count, and mean plus 95% CI columns for every headline metric.
// Rows appear in grid order, protocols in campaign order — the layout is
// deterministic and byte-identical for every worker count.
func (c *Campaign) CSV() string {
	var b strings.Builder
	c.csvHeader(&b, ",protocol,trials")
	for _, cell := range c.Cells {
		for _, p := range cell.Protocols {
			fmt.Fprintf(&b, "%d", cell.Index)
			writeCoords(&b, cell)
			fmt.Fprintf(&b, ",%s,%d", p.Protocol, c.Trials)
			writeMetrics(&b, &p.Summary.PhaseStats)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// PhaseCSV renders the campaign's per-phase aggregates as a tidy table: a
// row per (cell × protocol × phase) with mean and 95% CI columns for every
// phase metric. It returns "" when no cell ran under a scenario.
func (c *Campaign) PhaseCSV() string {
	var b strings.Builder
	c.csvHeader(&b, ",protocol,phase,phase_start,phase_end")
	header := b.Len()
	for _, cell := range c.Cells {
		for _, p := range cell.Protocols {
			for i := range p.Phases {
				ph := &p.Phases[i]
				fmt.Fprintf(&b, "%d", cell.Index)
				writeCoords(&b, cell)
				fmt.Fprintf(&b, ",%s,%s,%d,%d", p.Protocol, ph.Phase, ph.Start, ph.End)
				writeMetrics(&b, ph)
				b.WriteByte('\n')
			}
		}
	}
	if b.Len() == header {
		return ""
	}
	return b.String()
}

// axisIndex resolves the figure x axis: the named parameter, or the first
// axis when axisParam is empty.
func (c *Campaign) axisIndex(axisParam string) (int, error) {
	if axisParam == "" {
		return 0, nil
	}
	for i, a := range c.Spec.Axes {
		if a.Param == axisParam {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sweep: campaign %q has no axis %q", c.Spec.Name, axisParam)
}

// FigureSeries extracts the campaign as paper-figure curves: one series
// per protocol (per combination of the non-x axes, when the grid has more
// than one), x = the chosen axis value, y = the cell's trial-mean metric,
// err = its 95% confidence half-width. axisParam "" selects the first
// axis; metric is one of the Metric… keys. Points appear in grid order,
// so series x values follow the axis's declared value order. For a
// scenario-name x axis the value index stands in for x.
func (c *Campaign) FigureSeries(metric, axisParam string) ([]*stats.Series, error) {
	ai, err := c.axisIndex(axisParam)
	if err != nil {
		return nil, err
	}
	m, ok := metricOf(metric)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown metric %q (have %s)", metric, strings.Join(Metrics(), ", "))
	}
	xOf := func(cell CellResult) float64 {
		co := cell.Coords[ai]
		if co.Param == ParamScenario {
			// Scenario names have no numeric value; their axis position
			// stands in.
			for k, name := range c.Spec.Axes[ai].Scenarios {
				if name == co.Scenario {
					return float64(k)
				}
			}
		}
		return co.Value
	}
	// Series are keyed by protocol plus the fixed coordinates of every
	// other axis, so a 2-D sweep becomes one curve per (protocol × other
	// value) instead of silently averaging.
	keyOf := func(proto string, cell CellResult) string {
		key := proto
		for i, co := range cell.Coords {
			if i != ai {
				key += " " + co.String()
			}
		}
		return key
	}
	var order []string
	byKey := map[string]*stats.Series{}
	for _, cell := range c.Cells {
		for _, p := range cell.Protocols {
			key := keyOf(p.Protocol, cell)
			s, ok := byKey[key]
			if !ok {
				s = &stats.Series{Name: key}
				byKey[key] = s
				order = append(order, key)
			}
			s.Add(xOf(cell), m.of(&p.Summary))
		}
	}
	out := make([]*stats.Series, len(order))
	for i, key := range order {
		out[i] = byKey[key]
	}
	return out, nil
}

// FigureTable renders one metric of the campaign as an aligned text table
// — a row per x-axis value, a column per protocol curve, mean±ci95 cells —
// the same presentation the paper's figures use.
func (c *Campaign) FigureTable(metric, axisParam string) (string, error) {
	series, err := c.FigureSeries(metric, axisParam)
	if err != nil {
		return "", err
	}
	ai, _ := c.axisIndex(axisParam)
	return stats.Table(c.Spec.Axes[ai].Param, series), nil
}

// FigureCSV renders one metric of the campaign as figure-shaped CSV (x
// column plus a value and a _ci95 column per curve) for external plotting.
func (c *Campaign) FigureCSV(metric, axisParam string) (string, error) {
	series, err := c.FigureSeries(metric, axisParam)
	if err != nil {
		return "", err
	}
	ai, _ := c.axisIndex(axisParam)
	return stats.CSV(c.Spec.Axes[ai].Param, series), nil
}

package metrics

import "github.com/p2prepro/locaware/internal/stats"

// PhaseStats aggregates one window across replicated trials: every
// PhaseWindow metric becomes a cross-trial sample summary, so figure cells
// carry mean ± 95% CI error bars.
type PhaseStats struct {
	// Phase, Start and End identify the window; trials share one grid (same
	// spec, same measured count), so the bounds are common.
	Phase      string
	Start, End int
	// Queries summarises how many queries each trial recorded in the span.
	Queries stats.Summary
	// The full PhaseWindow metric set, summarised across trials.
	SuccessRate         stats.Summary
	AvgMessagesPerQuery stats.Summary
	AvgDownloadRTTMs    stats.Summary
	SameLocalityRate    stats.Summary
	CacheHitRate        stats.Summary
	AvgHops             stats.Summary
}

// AggregatePhases merges per-trial window slices into cross-trial
// summaries, aligned by position: window k of every trial contributes to
// PhaseStats k, which takes its identity from the first trial that has one.
// Trials run the same grid over the same measured count, so their windows
// coincide; a trial with fewer windows (truncated run) simply contributes
// no sample to the tail, so ragged inputs degrade to smaller samples
// instead of failing.
func AggregatePhases(trials [][]PhaseWindow) []PhaseStats {
	n := 0
	for _, ws := range trials {
		n = max(n, len(ws))
	}
	if n == 0 {
		return nil
	}
	out := make([]PhaseStats, n)
	var vals []float64 // one trial's value per sample, reused for every pool
	for k := range out {
		ps := &out[k]
		vals = vals[:0]
		for _, ws := range trials {
			if k < len(ws) {
				if len(vals) == 0 {
					ps.Phase, ps.Start, ps.End = ws[k].Phase, ws[k].Start, ws[k].End
				}
				vals = append(vals, float64(ws[k].Queries))
			}
		}
		ps.Queries = stats.Summarize(vals)
		for _, m := range Metrics {
			vals = vals[:0]
			for _, ws := range trials {
				if k < len(ws) {
					vals = append(vals, m.Value(&ws[k]))
				}
			}
			*m.Of(ps) = stats.Summarize(vals)
		}
	}
	return out
}

// Metric is one entry of the query-metric set: how the exporters name it,
// where it sits in one trial's PhaseWindow and in a cross-trial PhaseStats.
type Metric struct {
	// Key is the short name the figure exporters accept.
	Key string
	// Column is the tidy-CSV column stem.
	Column string
	// Title heads the metric's table in reports.
	Title string
	// Value reads the metric from one trial's window.
	Value func(*PhaseWindow) float64
	// Of points at the metric's cross-trial summary.
	Of func(*PhaseStats) *stats.Summary
}

// Metrics is the query-metric set in presentation order.
var Metrics = []Metric{
	{"success", "success", "success rate",
		func(w *PhaseWindow) float64 { return w.SuccessRate }, func(s *PhaseStats) *stats.Summary { return &s.SuccessRate }},
	{"msgs", "msgs_per_query", "search traffic (messages/query)",
		func(w *PhaseWindow) float64 { return w.AvgMessagesPerQuery }, func(s *PhaseStats) *stats.Summary { return &s.AvgMessagesPerQuery }},
	{"rtt", "download_rtt_ms", "download distance (ms)",
		func(w *PhaseWindow) float64 { return w.AvgDownloadRTTMs }, func(s *PhaseStats) *stats.Summary { return &s.AvgDownloadRTTMs }},
	{"sameloc", "same_locality", "same-locality download rate",
		func(w *PhaseWindow) float64 { return w.SameLocalityRate }, func(s *PhaseStats) *stats.Summary { return &s.SameLocalityRate }},
	{"cachehit", "cache_hit", "cache hit rate",
		func(w *PhaseWindow) float64 { return w.CacheHitRate }, func(s *PhaseStats) *stats.Summary { return &s.CacheHitRate }},
	{"hops", "hops", "hops to first hit",
		func(w *PhaseWindow) float64 { return w.AvgHops }, func(s *PhaseStats) *stats.Summary { return &s.AvgHops }},
}

// MetricByKey looks a metric up by its exporter key.
func MetricByKey(key string) (Metric, bool) {
	for _, m := range Metrics {
		if m.Key == key {
			return m, true
		}
	}
	return Metric{}, false
}

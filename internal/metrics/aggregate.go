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
		if len(ws) > n {
			n = len(ws)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]PhaseStats, n)
	for k := range out {
		var q, rtt, mpq, sr, loc, hit, hops []float64
		for _, ws := range trials {
			if k >= len(ws) {
				continue
			}
			w := ws[k]
			if len(q) == 0 {
				out[k].Phase, out[k].Start, out[k].End = w.Phase, w.Start, w.End
			}
			q = append(q, float64(w.Queries))
			rtt = append(rtt, w.AvgDownloadRTTMs)
			mpq = append(mpq, w.AvgMessagesPerQuery)
			sr = append(sr, w.SuccessRate)
			loc = append(loc, w.SameLocalityRate)
			hit = append(hit, w.CacheHitRate)
			hops = append(hops, w.AvgHops)
		}
		out[k].Queries = stats.Summarize(q)
		out[k].AvgDownloadRTTMs = stats.Summarize(rtt)
		out[k].AvgMessagesPerQuery = stats.Summarize(mpq)
		out[k].SuccessRate = stats.Summarize(sr)
		out[k].SameLocalityRate = stats.Summarize(loc)
		out[k].CacheHitRate = stats.Summarize(hit)
		out[k].AvgHops = stats.Summarize(hops)
	}
	return out
}

// Metric is one entry of the query-metric set: how the exporters name it
// and where it sits in a cross-trial PhaseStats.
type Metric struct {
	// Key is the short name the figure exporters accept.
	Key string
	// Column is the tidy-CSV column stem.
	Column string
	// Title heads the metric's table in reports.
	Title string
	// Of selects the metric's cross-trial summary.
	Of func(*PhaseStats) stats.Summary
}

// Metrics is the query-metric set in presentation order.
var Metrics = []Metric{
	{"success", "success", "success rate", func(s *PhaseStats) stats.Summary { return s.SuccessRate }},
	{"msgs", "msgs_per_query", "search traffic (messages/query)", func(s *PhaseStats) stats.Summary { return s.AvgMessagesPerQuery }},
	{"rtt", "download_rtt_ms", "download distance (ms)", func(s *PhaseStats) stats.Summary { return s.AvgDownloadRTTMs }},
	{"sameloc", "same_locality", "same-locality download rate", func(s *PhaseStats) stats.Summary { return s.SameLocalityRate }},
	{"cachehit", "cache_hit", "cache hit rate", func(s *PhaseStats) stats.Summary { return s.CacheHitRate }},
	{"hops", "hops", "hops to first hit", func(s *PhaseStats) stats.Summary { return s.AvgHops }},
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

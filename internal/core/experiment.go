package core

import (
	"sort"

	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/stats"
)

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []protocol.Behavior {
	return []protocol.Behavior{
		protocol.Flooding{},
		protocol.Dicas{},
		protocol.DicasKeys{},
		protocol.Locaware{},
	}
}

// Comparison is a paired multi-protocol run over an identical world and
// workload.
type Comparison struct {
	// Results maps protocol name to its run result.
	Results map[string]*RunResult
	// Order preserves the behaviour order for stable presentation.
	Order []string
	// Checkpoints are the cumulative query counts at which figure points
	// were taken.
	Checkpoints []int
}

// RunComparison runs every behaviour on the same seeded world for
// numQueries measured queries, preceded by warmup queries whose records
// are discarded (0 disables warmup). It is the single-trial special case of
// RunTrialComparison, so independent behaviours execute concurrently across
// the CPU-bounded worker pool; results are identical to a sequential loop.
// Use RunComparisonWorkers to bound the pool.
func RunComparison(cfg Config, behaviors []protocol.Behavior, warmup, numQueries int, checkpoints []int) *Comparison {
	return RunComparisonWorkers(cfg, behaviors, 0, warmup, numQueries, checkpoints)
}

// RunComparisonWorkers is RunComparison with at most workers concurrent
// simulations (<= 0 means one per CPU).
func RunComparisonWorkers(cfg Config, behaviors []protocol.Behavior, workers, warmup, numQueries int, checkpoints []int) *Comparison {
	tc := RunTrialComparison(cfg, behaviors, TrialOptions{Trials: 1, Workers: workers}, warmup, numQueries, checkpoints)
	cmp := &Comparison{
		Results:     make(map[string]*RunResult, len(tc.Order)),
		Order:       tc.Order,
		Checkpoints: tc.Checkpoints,
	}
	for _, name := range tc.Order {
		cmp.Results[name] = tc.Cells[name].Runs[0]
	}
	return cmp
}

// normalizeCheckpoints sorts, dedups and clamps checkpoints to [1,
// numQueries]; an empty input yields ten equal steps.
func normalizeCheckpoints(cps []int, numQueries int) []int {
	if len(cps) == 0 {
		step := numQueries / 10
		if step < 1 {
			step = 1
		}
		for x := step; x <= numQueries; x += step {
			cps = append(cps, x)
		}
	}
	seen := map[int]bool{}
	var out []int
	for _, c := range cps {
		if c >= 1 && c <= numQueries && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// Figure identifiers for the paper's three evaluation figures.
const (
	Fig2DownloadDistance = "fig2-download-distance"
	Fig3SearchTraffic    = "fig3-search-traffic"
	Fig4SuccessRate      = "fig4-success-rate"
)

// FigureSeries extracts a figure's curves from the comparison: one series
// per protocol, x = number of queries, y = the figure's metric over the
// window ending at that count. Per-window values expose the trends the
// paper reports (Locaware's download distance improving as replication
// spreads providers, the others staying flat).
func (c *Comparison) FigureSeries(fig string) []*stats.Series {
	var out []*stats.Series
	for _, name := range c.Order {
		windows := c.Results[name].Collector.Windows(c.Checkpoints)
		s := &stats.Series{Name: name}
		for _, w := range windows {
			var y float64
			switch fig {
			case Fig2DownloadDistance:
				y = w.DownloadRTT
			case Fig3SearchTraffic:
				y = w.MessagesPerQuery
			case Fig4SuccessRate:
				y = w.SuccessRate
			default:
				continue
			}
			s.Add(float64(w.End), y)
		}
		out = append(out, s)
	}
	return out
}

// Headline summarises the paper's three headline claims over this
// comparison.
type Headline struct {
	// DistanceReduction is the relative reduction of Locaware's final
	// download distance versus the mean of the other protocols' (paper:
	// ≈ -14%).
	DistanceReduction float64
	// TrafficReductionVsFlooding is Locaware's search-traffic reduction
	// versus Flooding (paper: ≈ -98%).
	TrafficReductionVsFlooding float64
	// HitGainVsDicas and HitGainVsDicasKeys are Locaware's relative
	// success-rate gains (paper: ≈ +23% and ≈ +33%).
	HitGainVsDicas     float64
	HitGainVsDicasKeys float64
}

// Headlines computes the claim metrics from final cumulative values.
func (c *Comparison) Headlines() Headline {
	la := c.Results["Locaware"]
	fl := c.Results["Flooding"]
	di := c.Results["Dicas"]
	dk := c.Results["Dicas-Keys"]
	var h Headline
	if la == nil {
		return h
	}
	if fl != nil && di != nil && dk != nil {
		others := (fl.Collector.AvgDownloadRTT() + di.Collector.AvgDownloadRTT() + dk.Collector.AvgDownloadRTT()) / 3
		h.DistanceReduction = stats.RelativeChange(others, la.Collector.AvgDownloadRTT())
	}
	if fl != nil {
		h.TrafficReductionVsFlooding = stats.RelativeChange(
			fl.Collector.AvgMessagesPerQuery(), la.Collector.AvgMessagesPerQuery())
	}
	if di != nil {
		h.HitGainVsDicas = stats.RelativeChange(di.Collector.SuccessRate(), la.Collector.SuccessRate())
	}
	if dk != nil {
		h.HitGainVsDicasKeys = stats.RelativeChange(dk.Collector.SuccessRate(), la.Collector.SuccessRate())
	}
	return h
}

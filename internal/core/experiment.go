package core

import (
	"sort"

	"github.com/p2prepro/locaware/internal/protocol"
)

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []protocol.Behavior { return protocol.Baselines() }

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

// figureMetric maps each figure to the key of the metric it plots
// (metrics.Metrics).
var figureMetric = map[string]string{
	Fig2DownloadDistance: "rtt",
	Fig3SearchTraffic:    "msgs",
	Fig4SuccessRate:      "success",
}

// Headline summarises the paper's three headline claims over a
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

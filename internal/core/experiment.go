package core

import "github.com/p2prepro/locaware/internal/protocol"

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []protocol.Behavior { return protocol.Baselines() }

// tenSteps is the default figure grid: ten equal steps of a run of
// measured queries (every query when there are fewer than ten).
func tenSteps(measured int) []int {
	step := max(measured/10, 1)
	var cps []int
	for x := step; x <= measured; x += step {
		cps = append(cps, x)
	}
	return cps
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

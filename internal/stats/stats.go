// Package stats provides the small statistical toolkit the experiment
// harness uses: summary statistics, confidence intervals and the series
// figures print. Stdlib only.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the usual moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += float64(d * d)
		}
		s.StdDev = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders the summary as "mean±ci95", or the bare mean when it pools
// fewer than two samples (a single number has no spread).
func (s Summary) String() string {
	if s.N < 2 {
		return fmt.Sprintf("%.3f", s.Mean)
	}
	return fmt.Sprintf("%.3f±%.3f", s.Mean, s.CI95())
}

// RelativeChange returns (b-a)/a, guarding the zero denominator.
func RelativeChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

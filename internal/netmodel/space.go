// Package netmodel models the underlying physical network of the Locaware
// evaluation: peer placement in a latency space, pairwise round-trip times in
// the 10–500 ms range (BRITE-inspired, §5.1 of the paper), a set of landmark
// machines, and landmark-ordering location identifiers (locIds).
//
// The paper uses BRITE only as a source of realistic link latencies; the
// essential properties the protocols depend on are (a) latencies spanning
// 10–500 ms and (b) a geometry in which physically close peers see similar
// RTTs to the landmarks and therefore share a locId. A 2-D Euclidean latency
// plane provides both, with the advantage of exact reproducibility.
package netmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in the 2-D latency plane. Coordinates are unitless;
// the latency model maps distances to milliseconds.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := float64(p.X)-float64(q.X), float64(p.Y)-float64(q.Y)
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// String renders the point with two decimals, for traces.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// PlacementConfig controls peer placement in the plane.
type PlacementConfig struct {
	// Side is the side length of the square universe. The default (1000)
	// combined with the default latency mapping spans the paper's 10–500 ms
	// latency range.
	Side float64
	// Clusters > 0 places peers around that many cluster centres (mimicking
	// BRITE's heavy-tailed AS-level clustering); 0 places them uniformly.
	Clusters int
	// ClusterSpread is the standard deviation of peer scatter around its
	// cluster centre, as a fraction of Side. Ignored when Clusters == 0.
	ClusterSpread float64
}

// DefaultPlacement mirrors the paper's setup: clustered placement so that
// landmark orderings induce meaningful localities.
func DefaultPlacement() PlacementConfig {
	return PlacementConfig{Side: 1000, Clusters: 24, ClusterSpread: 0.04}
}

// Place positions n peers in the plane according to cfg, using r for all
// randomness. It returns one point per peer.
func Place(n int, cfg PlacementConfig, r *rand.Rand) []Point {
	pts := make([]Point, n)
	if cfg.Clusters <= 0 {
		for i := range pts {
			pts[i] = Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
		}
		return pts
	}
	centres := make([]Point, cfg.Clusters)
	for i := range centres {
		centres[i] = Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
	}
	sigma := cfg.ClusterSpread * cfg.Side
	for i := range pts {
		c := centres[r.Intn(len(centres))]
		pts[i] = Point{
			X: clamp(c.X+float64(r.NormFloat64()*sigma), 0, cfg.Side),
			Y: clamp(c.Y+float64(r.NormFloat64()*sigma), 0, cfg.Side),
		}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

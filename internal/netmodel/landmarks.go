package netmodel

import (
	"math/rand"
	"sort"
)

// Landmarks is a set of well-known reference machines spread across the
// latency plane (§4.1.1). A peer orders the set by increasing RTT; the
// resulting permutation identifies its physical locality.
type Landmarks struct {
	pts []Point
}

// NewLandmarks places k >= 1 landmarks to maximise spread: the first is
// uniform, each subsequent landmark is the best of a candidate batch by
// farthest-point distance. With the paper's k=4 this yields 24 possible
// orderings that partition the plane into contiguous localities.
func NewLandmarks(k int, side float64, r *rand.Rand) *Landmarks {
	pts := make([]Point, 0, k)
	pts = append(pts, Point{X: r.Float64() * side, Y: r.Float64() * side})
	const candidates = 64
	for len(pts) < k {
		var best Point
		bestScore := -1.0
		for c := 0; c < candidates; c++ {
			cand := Point{X: r.Float64() * side, Y: r.Float64() * side}
			score := minDist(cand, pts)
			if score > bestScore {
				bestScore, best = score, cand
			}
		}
		pts = append(pts, best)
	}
	return &Landmarks{pts: pts}
}

// FixedLandmarks builds a landmark set from explicit coordinates; used by
// tests and by experiments that need reproducible landmark geometry.
func FixedLandmarks(pts []Point) *Landmarks {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Landmarks{pts: cp}
}

// Ordering returns the landmark indices sorted by increasing RTT from peer a
// under model m — the peer's landmark ordering from §4.1.1.
func (l *Landmarks) Ordering(m *Model, a int) []int {
	type probe struct {
		idx int
		rtt float64
	}
	probes := make([]probe, len(l.pts))
	for i, p := range l.pts {
		probes[i] = probe{i, m.RTTToPoint(a, p)}
	}
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].rtt < probes[j].rtt })
	out := make([]int, len(probes))
	for i, p := range probes {
		out[i] = p.idx
	}
	return out
}

func minDist(p Point, pts []Point) float64 {
	best := -1.0
	for _, q := range pts {
		d := p.Dist(q)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

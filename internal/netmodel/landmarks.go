package netmodel

import "math/rand"

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

// order fills perm, one slot per landmark like the scratch rtt, with peer
// a's landmark ordering under m (§4.1.1): the indices by increasing RTT, in
// a stable insertion sort, so tied landmarks keep index order.
func (l *Landmarks) order(m *Model, a int, rtt []float64, perm []int) {
	for j, p := range l.pts {
		r := m.RTTToPoint(a, p)
		i := j
		for ; i > 0 && rtt[i-1] > r; i-- {
			rtt[i], perm[i] = rtt[i-1], perm[i-1]
		}
		rtt[i], perm[i] = r, j
	}
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

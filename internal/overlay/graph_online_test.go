package overlay

import (
	"math/rand"
	"testing"
)

// TestGraphNeverListsOfflineNeighbours is the invariant the message plane
// leans on to skip per-neighbour online checks: after any random sequence
// of AddLink / RemoveLink / Leave / Join / BurstLeave / BurstJoin /
// ChurnStep, an offline peer has no links and no peer lists an offline
// neighbour.
func TestGraphNeverListsOfflineNeighbours(t *testing.T) {
	const n, maxDegree = 24, 6
	churn := ChurnConfig{LeaveProb: 0.2, JoinProb: 0.4, AvgDegree: 3, MaxDegree: maxDegree, MinOnlineFraction: 0.3}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := BuildRandom(n, BuildConfig{AvgDegree: 3, MaxDegree: maxDegree}, r)
		ops := [7]int{}
		for step := 0; step < 2000; step++ {
			a, b := PeerID(r.Intn(n)), PeerID(r.Intn(n))
			op := r.Intn(len(ops))
			ops[op]++
			switch op {
			case 0:
				_ = g.AddLink(a, b) // refused for offline peers
			case 1:
				g.RemoveLink(a, b)
			case 2:
				g.Leave(a)
			case 3:
				_ = g.Join(a)
			case 4:
				BurstLeave(g, 0.3, 0.2, maxDegree, r)
			case 5:
				BurstJoin(g, 0.5, 3, maxDegree, r)
			case 6:
				ChurnStep(g, churn, r)
			}
			for p := PeerID(0); p < n; p++ {
				if !g.Online(p) && g.Degree(p) != 0 {
					t.Fatalf("seed %d step %d (op %d): offline peer %d has links %v", seed, step, op, p, g.Neighbors(p))
				}
				for _, q := range g.Neighbors(p) {
					if !g.Online(q) {
						t.Fatalf("seed %d step %d (op %d): peer %d lists offline neighbour %d", seed, step, op, p, q)
					}
				}
			}
		}
		for i, c := range ops {
			if c < 100 {
				t.Fatalf("seed %d: operation %d ran %d times; the sequence does not exercise it", seed, i, c)
			}
		}
	}
}

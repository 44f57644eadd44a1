package overlay

import (
	"math/rand"
	"slices"
	"testing"
)

// churnStepRescan is ChurnStep as it was first written, the oracle: it
// recounts the online peers before every departure draw. binds counts the
// online peers the MinOnlineFraction floor kept from a draw.
func churnStepRescan(g *Graph, cfg ChurnConfig, r *rand.Rand) (left, joined []PeerID, binds int) {
	minOnline := int(cfg.MinOnlineFraction * float64(g.N()))
	for i := 0; i < g.N(); i++ {
		p := PeerID(i)
		if g.Online(p) {
			if g.OnlineCount() <= minOnline {
				binds++
				continue
			}
			if r.Float64() < cfg.LeaveProb {
				former := g.Leave(p)
				RepairAfterLeave(g, former, 1, cfg.MaxDegree)
				left = append(left, p)
			}
		} else if r.Float64() < cfg.JoinProb {
			_ = g.Join(p)
			RewireJoin(g, p, cfg.AvgDegree, cfg.MaxDegree, r)
			joined = append(joined, p)
		}
	}
	return left, joined, binds
}

// TestChurnStepMatchesRescanOracle: ChurnStep's running online count makes
// the same draws as recounting the online peers before each one. Twin
// worlds churn side by side over 60 seeds, under a mild process and one
// harsh enough that the online floor binds mid-round, and after every
// round the departures, the arrivals and the whole graph must agree.
func TestChurnStepMatchesRescanOracle(t *testing.T) {
	configs := []ChurnConfig{
		DefaultChurn(),
		{LeaveProb: 0.5, JoinProb: 0.1, AvgDegree: 3, MaxDegree: 12, MinOnlineFraction: 0.6},
	}
	binds := 0
	for seed := int64(1); seed <= 60; seed++ {
		for ci, cfg := range configs {
			got := BuildRandom(150, paperBuild, rand.New(rand.NewSource(seed)))
			want := BuildRandom(150, paperBuild, rand.New(rand.NewSource(seed)))
			rg, rw := rand.New(rand.NewSource(seed*31)), rand.New(rand.NewSource(seed*31))
			for step := 0; step < 8; step++ {
				left, joined := ChurnStep(got, cfg, rg)
				wantLeft, wantJoined, b := churnStepRescan(want, cfg, rw)
				binds += b
				if !slices.Equal(left, wantLeft) || !slices.Equal(joined, wantJoined) {
					t.Fatalf("seed %d config %d step %d: left %v joined %v, oracle %v %v", seed, ci, step, left, joined, wantLeft, wantJoined)
				}
				for p := PeerID(0); int(p) < got.N(); p++ {
					if got.Online(p) != want.Online(p) || !slices.Equal(got.Neighbors(p), want.Neighbors(p)) {
						t.Fatalf("seed %d config %d step %d: peer %d differs from the oracle", seed, ci, step, p)
					}
				}
			}
		}
	}
	if binds == 0 {
		t.Fatal("the online floor never bound; the oracle did not cover it")
	}
}

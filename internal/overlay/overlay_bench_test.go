package overlay

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBuildRandom measures paper-scale overlay construction.
func BenchmarkBuildRandom(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		_ = BuildRandom(1000, paperBuild, r)
	}
}

// BenchmarkNeighbors measures sorted neighbour-list extraction, the
// per-hop operation of every forwarding decision.
func BenchmarkNeighbors(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	g := BuildRandom(1000, paperBuild, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Neighbors(PeerID(i % 1000))
	}
}

// BenchmarkChurnStep measures one full churn round at the paper's 1000
// peers and at the 20 000 of the large-world benchmark.
func BenchmarkChurnStep(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			g := BuildRandom(n, paperBuild, r)
			cfg := DefaultChurn()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ChurnStep(g, cfg, r)
			}
		})
	}
}

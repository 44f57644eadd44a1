package overlay

import (
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

// BenchmarkChurnStep measures one full churn round over 1000 peers.
func BenchmarkChurnStep(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	g := BuildRandom(1000, paperBuild, r)
	cfg := DefaultChurn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChurnStep(g, cfg, r)
	}
}

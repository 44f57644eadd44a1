package cache

import (
	"testing"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

func benchFilenames(n int) []keywords.Filename {
	out := make([]keywords.Filename, n)
	for i := range out {
		out[i] = keywords.NewFilename(keywords.ID(i%37), keywords.ID(1000+i%53), keywords.ID(2000+i))
	}
	return out
}

// BenchmarkPut measures insertion with LRU pressure at the paper's
// 50-filename capacity.
func BenchmarkPut(b *testing.B) {
	x := New(DefaultConfig(), nil)
	files := benchFilenames(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Put(files[i%200], overlay.PeerID(i%30), netmodel.LocID(i%24), sim.Time(i))
	}
}

// BenchmarkLookup measures keyword-subset lookup against a full index.
func BenchmarkLookup(b *testing.B) {
	x := New(DefaultConfig(), nil)
	files := benchFilenames(60)
	for i, f := range files {
		x.Put(f, overlay.PeerID(i%30), 0, sim.Time(i))
	}
	q := keywords.NewQuery(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(q, sim.Time(i))
	}
}

// BenchmarkProvidersRefresh measures the §4.1.2 refresh path (existing
// provider moves to the front).
func BenchmarkProvidersRefresh(b *testing.B) {
	x := New(DefaultConfig(), nil)
	f := benchFilenames(1)[0]
	for p := 0; p < 5; p++ {
		x.Put(f, overlay.PeerID(p), 0, sim.Time(p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Put(f, overlay.PeerID(i%5), 0, sim.Time(i+10))
	}
}

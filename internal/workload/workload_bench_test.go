package workload

import (
	"math/rand"
	"testing"

	"github.com/p2prepro/locaware/internal/keywords"
)

// BenchmarkZipfDraw measures popularity sampling (s<=1 analytic inverse).
func BenchmarkZipfDraw(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(3000, 1.0, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw(r)
	}
}

// BenchmarkGeneratorNext measures full query-event generation (arrival,
// requester, target, keyword extraction).
func BenchmarkGeneratorNext(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	cat := NewCatalog(DefaultCatalog(), r)
	g := NewGeneratorOver(1000, DefaultGen(), cat, allFiles(cat), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkCatalogMatching measures ground-truth keyword matching across
// the whole catalogue.
func BenchmarkCatalogMatching(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	cat := NewCatalog(DefaultCatalog(), r)
	f := cat.File(100)
	q := keywords.ExtractQuery(f, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cat.MatchingFiles(q)
	}
}

// BenchmarkNewCatalog measures paper-scale catalogue construction.
func BenchmarkNewCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		_ = NewCatalog(DefaultCatalog(), r)
	}
}

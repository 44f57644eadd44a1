package campaign

import (
	"testing"

	"github.com/p2prepro/locaware/internal/core"
)

// BenchmarkCampaignInProcess is the tiny 4-cell campaign run with no
// checkpointing.
func BenchmarkCampaignInProcess(b *testing.B) {
	base := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		camp, _, err := Run(base, tinySpec(), 1, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(camp.Cells))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		}
	}
}

// BenchmarkCampaignResume measures the checkpoint cache hit path: every
// cell restored from disk, nothing recomputed.
func BenchmarkCampaignResume(b *testing.B) {
	base := core.DefaultConfig()
	dir := b.TempDir()
	if _, _, err := Run(base, tinySpec(), 1, Options{Checkpoint: dir}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, stats, err := Run(base, tinySpec(), 1, Options{Checkpoint: dir, Resume: true})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Resumed != 4 || stats.Executed != 0 {
			b.Fatalf("resume missed the cache: %+v", stats)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(stats.Cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		}
	}
}

package sweep

import (
	"testing"

	"github.com/p2prepro/locaware/internal/core"
)

// benchSpec is the throughput fixture: a 4-cell TTL grid, two protocols,
// two trials — 16 simulations per campaign, small enough to iterate but
// wide enough to exercise the scheduler and the streamed aggregation.
func benchSpec() *Spec {
	return &Spec{
		Name:      "bench",
		Warmup:    100,
		Queries:   400,
		Trials:    2,
		Protocols: []string{"Dicas", "Locaware"},
		Base:      map[string]float64{ParamPeers: 200},
		Axes: []Axis{
			{Param: "ttl", Values: []float64{3, 5, 7, 9}},
		},
	}
}

// BenchmarkSweepThroughput measures campaign throughput in grid cells per
// second end to end: grid expansion, per-cell world builds, all
// (cell × protocol × trial) simulations and the streamed cross-trial
// aggregation. benchmark/history.json (source BENCH_pr4.json) records the
// cells/sec headline.
func BenchmarkSweepThroughput(b *testing.B) {
	base := core.DefaultConfig()
	base.Gen.RatePerPeer = 0.01 // accelerate arrivals, as the test worlds do
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		camp, err := runGrid(base, spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(camp.Cells)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
	b.ReportMetric(float64(cells*len(spec.ProtocolNames())*core.TrialCount(spec.Trials))/b.Elapsed().Seconds(), "runs/sec")
}

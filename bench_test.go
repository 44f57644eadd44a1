// Benchmarks regenerating every figure of the Locaware paper's evaluation
// (§5.2) plus the built-in sweep campaigns of README.md § Sweeps. Each
// figure bench runs the paired comparison at a reduced-but-representative
// scale and reports the figure's metric per protocol via b.ReportMetric, so
// `go test -bench=.` reproduces the paper's rows. Absolute wall-clock time
// of a bench iteration is simulator speed, not a paper metric.
//
// Paper-scale regeneration (1000 peers) lives in cmd/locaware; the benches
// use 400 peers so the full suite completes in minutes, and preserve the
// shape of every comparison (who wins, by roughly what factor).
// README.md § The command gives the paper-scale commands (`locaware fig
// all`). internal/core/testdata/ledger.json pins the hot path's cost per
// query, BENCHMARK.json's workloads measure it, and
// testdata/golden_compare_200peers.txt pins the 200-peer Fig. 3/4 table.
package locaware

import (
	"fmt"
	"testing"
)

// benchOptions is the shared bench world: 400 peers, accelerated arrivals.
func benchOptions(seed int64) Options {
	o := DefaultOptions()
	o.Seed = seed
	o.Peers = 400
	o.QueryRate = 0.005
	return o
}

const (
	benchWarmup  = 1000
	benchQueries = 1000
)

// benchCompare runs the four-protocol comparison once per bench iteration
// and reports the extractor's metric for each protocol.
func benchCompare(b *testing.B, metric string, extract func(*Result) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(benchOptions(1), Baselines(), benchWarmup, benchQueries, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range cmp.Sets {
			b.ReportMetric(extract(s.Trials[0]), fmt.Sprintf("%s:%s", s.Protocol, metric))
		}
	}
}

// BenchmarkFig2DownloadDistance regenerates Figure 2: average download
// distance (ms RTT requester→chosen provider) per protocol. Paper shape:
// Locaware ≈14% below the others and improving with query volume.
func BenchmarkFig2DownloadDistance(b *testing.B) {
	benchCompare(b, "rtt_ms", func(r *Result) float64 { return r.AvgDownloadRTTMs })
}

// BenchmarkFig3SearchTraffic regenerates Figure 3: search traffic in
// messages per query. Paper shape: Locaware and the Dicas variants ≈98%
// below Flooding.
func BenchmarkFig3SearchTraffic(b *testing.B) {
	benchCompare(b, "msgs_per_query", func(r *Result) float64 { return r.AvgMessagesPerQuery })
}

// BenchmarkFig4SuccessRate regenerates Figure 4: query success rate. Paper
// shape: Flooding best (huge traffic cost); Locaware above Dicas (+23%)
// and Dicas-Keys (+33%).
func BenchmarkFig4SuccessRate(b *testing.B) {
	benchCompare(b, "success", func(r *Result) float64 { return r.SuccessRate })
}

// BenchmarkBuiltinCampaigns runs every campaign of the built-in registry —
// the figure grids and the paper's parameter studies (landmarks, cache
// capacity, Bloom size, group count, location-aware routing, churn) — once
// per iteration at a shrunken budget, reporting each spec'd figure metric
// of the last cell's last protocol. A study added to the registry is
// benchmarked, and smoke-run by CI, without an edit here.
func BenchmarkBuiltinCampaigns(b *testing.B) {
	for _, name := range SweepNames() {
		b.Run(name, func(b *testing.B) {
			sw, err := LoadSweep(name)
			if err != nil {
				b.Fatal(err)
			}
			if sw, err = sw.WithTrials(1).WithBudget(100, 300).WithBase("peers", 150); err != nil {
				b.Fatal(err)
			}
			protos := sw.Protocols()
			for i := 0; i < b.N; i++ {
				res, err := RunSweep(benchOptions(1), sw)
				if err != nil {
					b.Fatal(err)
				}
				for _, metric := range sw.Figures() {
					e, err := res.CellEstimate(res.NumCells()-1, protos[len(protos)-1], metric)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(e.Mean, metric)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw engine performance: events
// processed per second for a Locaware run (simulator speed, not a paper
// metric, but the number that bounds experiment turnaround).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(benchOptions(int64(i+1)), ProtocolLocaware, 0, 500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Events), "events")
	}
}

// BenchmarkScale20kPeers is the scale smoke lock behind the streaming
// metrics pipeline: a 20000-peer Locaware run end to end (world build +
// 500 measured queries) with allocation reporting. The streaming collector
// and pooled hot path keep the per-query allocation cost flat as the
// overlay grows; regressions show up here as a jump in allocs/op long
// before they OOM a 100k-peer experiment.
func BenchmarkScale20kPeers(b *testing.B) {
	o := DefaultOptions()
	o.Seed = 1
	o.Peers = 20000
	o.QueryRate = 0.002
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(o, ProtocolLocaware, 0, 500)
		if err != nil {
			b.Fatal(err)
		}
		if r.Queries != 500 {
			b.Fatalf("measured %d queries", r.Queries)
		}
		b.ReportMetric(float64(r.Events), "events")
	}
}

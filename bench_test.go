// Benchmarks regenerating every figure of the Locaware paper's evaluation
// (§5.2) plus the ablations and extensions listed under "Command-line
// harness" in README.md. Each figure bench runs the paired comparison at a
// reduced-but-representative scale and reports the figure's metric per
// protocol via b.ReportMetric, so `go test -bench=.` reproduces the paper's
// rows. Absolute wall-clock time of a bench iteration is simulator speed,
// not a paper metric.
//
// Paper-scale regeneration (1000 peers) lives in cmd/locaware-exp; the
// benches use 400 peers so the full suite completes in minutes. The shape
// of every comparison (who wins, by roughly what factor) is preserved. The
// README's "Command-line harness" section gives the paper-scale commands
// (`locaware-exp -fig all`), "Scaling" the hot-path cost at 2000 peers, and
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

// BenchmarkAblationLandmarks sweeps the landmark count (paper §5.1: 4
// landmarks → 24 locIds; 5 landmarks scatter 1000 peers too thinly).
func BenchmarkAblationLandmarks(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("landmarks=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(1)
				o.Landmarks = k
				r, err := Run(o, ProtocolLocaware, benchWarmup, benchQueries)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SameLocalityRate, "same_locality")
				b.ReportMetric(r.AvgDownloadRTTMs, "rtt_ms")
			}
		})
	}
}

// BenchmarkAblationCacheSize sweeps the response-index capacity.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, capacity := range []int{10, 25, 50, 100} {
		b.Run(fmt.Sprintf("cache=%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(1)
				o.CacheFilenames = capacity
				r, err := Run(o, ProtocolLocaware, benchWarmup, benchQueries)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SuccessRate, "success")
				b.ReportMetric(r.AvgMessagesPerQuery, "msgs_per_query")
			}
		})
	}
}

// BenchmarkAblationBloomSize sweeps the Bloom filter size (paper: 1200
// bits); smaller filters raise false positives and waste forwards, larger
// ones raise gossip cost.
func BenchmarkAblationBloomSize(b *testing.B) {
	for _, bits := range []int{300, 600, 1200, 2400} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(1)
				o.BloomBits = bits
				r, err := Run(o, ProtocolLocaware, benchWarmup, benchQueries)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SuccessRate, "success")
				b.ReportMetric(r.ControlKbits, "gossip_kbit")
			}
		})
	}
}

// BenchmarkAblationGroupCount sweeps Dicas's M: more groups mean sparser
// caching and more selective routing.
func BenchmarkAblationGroupCount(b *testing.B) {
	for _, m := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(1)
				o.Groups = m
				r, err := Run(o, ProtocolLocaware, benchWarmup, benchQueries)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SuccessRate, "success")
				b.ReportMetric(float64(r.CachedFilenames), "cached_filenames")
			}
		})
	}
}

// BenchmarkExtensionLocationRouting compares Locaware against the §6
// future-work location-aware routing variant.
func BenchmarkExtensionLocationRouting(b *testing.B) {
	for _, p := range []Protocol{ProtocolLocaware, ProtocolLocawareLR} {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Run(benchOptions(1), p, benchWarmup, benchQueries)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.AvgDownloadRTTMs, "rtt_ms")
				b.ReportMetric(r.SameLocalityRate, "same_locality")
			}
		})
	}
}

// BenchmarkExtensionChurn measures success degradation under peer churn
// for single-provider (Dicas) versus multi-provider (Locaware) indexes.
func BenchmarkExtensionChurn(b *testing.B) {
	steady, err := ScenarioByName("steady-churn")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []Protocol{ProtocolDicas, ProtocolLocaware} {
		for _, churn := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/churn=%v", p, churn), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := benchOptions(1)
					if churn {
						o.Scenario = steady
					}
					r, err := Run(o, p, benchWarmup, benchQueries)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.SuccessRate, "success")
				}
			})
		}
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

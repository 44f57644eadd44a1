package core

import (
	"runtime"
	"testing"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/trace"
)

// benchConfig is a mid-scale world with accelerated arrivals, large enough
// that the measured path (queries, forwards, responses, finalisation)
// dominates any per-world constant.
func benchConfig(peers int, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = peers
	cfg.Gen.RatePerPeer = 0.01
	return cfg
}

// BenchmarkMeasuredPathAllocs locks the streaming-pipeline win: it times
// only RunMeasured (world construction is excluded via StopTimer) and
// reports allocs/query on the measured path. Before the streaming metrics
// pipeline and hot-path pooling this figure was ~950 allocs/query at 2000
// peers; the refactor target is a ≥5× reduction.
func BenchmarkMeasuredPathAllocs(b *testing.B) {
	const queries = 500
	b.ReportAllocs()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(2000, int64(i+1))
		cfg.Protocol.Collector.Checkpoints = []int{100, 200, 300, 400, 500}
		s := NewSimulation(cfg, protocol.Locaware{})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		res := s.RunMeasured(0, queries)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if res.Collector.Submitted() != queries {
			b.Fatalf("submitted %d queries", res.Collector.Submitted())
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocs)/float64(uint64(b.N)*queries), "allocs/query")
}

// BenchmarkInstrumentedPathAllocs is BenchmarkMeasuredPathAllocs with the
// observability registry attached: the instrumented hot path must stay
// within the same per-query allocation budget, because per-event
// accounting is plain increments on the engine and the network and the
// only instrumentation allocations are first-seen event kinds and the
// end-of-run fold, both amortised over the whole run.
func BenchmarkInstrumentedPathAllocs(b *testing.B) {
	const queries = 500
	b.ReportAllocs()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(2000, int64(i+1))
		cfg.Protocol.Collector.Checkpoints = []int{100, 200, 300, 400, 500}
		cfg.Obs = obs.NewRegistry()
		s := NewSimulation(cfg, protocol.Locaware{})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		res := s.RunMeasured(0, queries)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if res.Collector.Submitted() != queries {
			b.Fatalf("submitted %d queries", res.Collector.Submitted())
		}
		if res.Runtime == nil || res.Runtime.Submitted != queries {
			b.Fatalf("instrumentation lost the run: %+v", res.Runtime)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocs)/float64(uint64(b.N)*queries), "allocs/query")
}

// BenchmarkFlightRecorderPathAllocs is BenchmarkMeasuredPathAllocs with a
// tail-sampling flight recorder attached (SlowestN 8). Every query of the
// run is in flight at once, each in a ring slot whose first record window
// is carved from a block, and only the retained queries' events are spelt:
// 0.83 allocs/query where the untraced path reads 0.42 (7.80 when every
// event's detail was spelt as it was emitted). TestHotPathAllocBudget's
// traced row holds the budget.
func BenchmarkFlightRecorderPathAllocs(b *testing.B) {
	const queries = 500
	b.ReportAllocs()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(2000, int64(i+1))
		cfg.Protocol.Collector.Checkpoints = []int{100, 200, 300, 400, 500}
		cfg.TracePolicy = &trace.Policy{SlowestN: 8}
		s := NewSimulation(cfg, protocol.Locaware{})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		res := s.RunMeasured(0, queries)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if res.Collector.Submitted() != queries {
			b.Fatalf("submitted %d queries", res.Collector.Submitted())
		}
		if len(res.Traces) != 8 {
			b.Fatalf("recorder retained %d traces, want 8", len(res.Traces))
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocs)/float64(uint64(b.N)*queries), "allocs/query")
}

// BenchmarkScenarioOverhead proves the scenario engine is free when idle:
// the no-op baseline scenario (one steady phase, no dynamics) adds one
// branch per submission and one phase accumulator to the PR 2 hot path, so
// its allocs/query must match the scenario-less measured path — compare
// the scenario=off and scenario=baseline sub-benchmarks.
func BenchmarkScenarioOverhead(b *testing.B) {
	const queries = 500
	for _, withScenario := range []bool{false, true} {
		name := "scenario=off"
		if withScenario {
			name = "scenario=baseline"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var mallocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchConfig(2000, int64(i+1))
				cfg.Protocol.Collector.Checkpoints = []int{100, 200, 300, 400, 500}
				if withScenario {
					cfg.Scenario, _ = scenario.Lookup("baseline")
				}
				s := NewSimulation(cfg, protocol.Locaware{})
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				res := s.RunMeasured(0, queries)
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				if res.Collector.Submitted() != queries {
					b.Fatalf("submitted %d queries", res.Collector.Submitted())
				}
				if withScenario && len(res.Collector.PhaseWindows()) != 1 {
					b.Fatal("baseline scenario must seal exactly one phase window")
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(mallocs)/float64(uint64(b.N)*queries), "allocs/query")
		})
	}
}

// BenchmarkCollectorFootprint contrasts the two measurement modes on the
// same run: the streaming collector's state is O(checkpoints) while
// RetainRecords grows O(queries). The bytes/op gap is the memory the
// streaming pipeline gives back to large runs.
func BenchmarkCollectorFootprint(b *testing.B) {
	for _, retain := range []bool{false, true} {
		name := "streaming"
		if retain {
			name = "retain-records"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(400, int64(i+1))
				cfg.Protocol.Collector.Checkpoints = []int{500, 1000, 1500, 2000}
				cfg.Protocol.Collector.RetainRecords = retain
				s := NewSimulation(cfg, protocol.Locaware{})
				s.RunMeasured(0, 2000)
			}
		})
	}
}

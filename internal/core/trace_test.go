package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// runFingerprint reduces a run to the values a determinism lock cares
// about.
type runFingerprint struct {
	Success  float64
	Messages float64
	RTT      float64
	Events   uint64
	Control  uint64
	Cache    int
}

// TestRecorderDoesNotPerturbRun locks the inertness contract: attaching a
// flight recorder changes no metric and no per-query record — byte-identical
// to the untraced run.
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	run := func(pol *trace.Policy) (runFingerprint, []metrics.QueryRecord) {
		cfg := benchConfig(300, 17)
		cfg.Protocol.Collector = metrics.CollectorConfig{RetainRecords: true}
		cfg.TracePolicy = pol
		s := NewSimulation(cfg, protocol.Locaware{})
		res := s.RunMeasured(50, 150)
		fp := runFingerprint{
			Success:  res.Collector.SuccessRate(),
			Messages: res.Collector.AvgMessagesPerQuery(),
			RTT:      res.Collector.AvgDownloadRTT(),
			Events:   res.Events,
			Control:  res.ControlMessages,
			Cache:    res.CacheFilenames,
		}
		return fp, res.Collector.Records()
	}
	plainFp, plainRecs := run(nil)
	tracedFp, tracedRecs := run(&trace.Policy{SlowestN: 8, KeepFailed: true})
	if !reflect.DeepEqual(plainFp, tracedFp) {
		t.Fatalf("recorder perturbed metrics:\n  plain  %+v\n  traced %+v", plainFp, tracedFp)
	}
	if !reflect.DeepEqual(plainRecs, tracedRecs) {
		t.Fatal("recorder perturbed per-query records")
	}
}

// TestRunResultCarriesTraces locks the harvest plumbing: a traced run
// surfaces retained traces, the scenario phase events and the processing
// constant; an untraced run leaves all three zero.
func TestRunResultCarriesTraces(t *testing.T) {
	cfg := benchConfig(200, 5)
	cfg.TracePolicy = &trace.Policy{SlowestN: 3}
	s := NewSimulation(cfg, protocol.Locaware{})
	res := s.RunMeasured(0, 100)
	if len(res.Traces) == 0 || len(res.Traces) > 3 {
		t.Fatalf("retained %d traces, want 1..3", len(res.Traces))
	}
	if res.TraceProcessing != cfg.Protocol.ProcessingDelay {
		t.Fatalf("TraceProcessing = %v, want %v", res.TraceProcessing, cfg.Protocol.ProcessingDelay)
	}
	for i := 1; i < len(res.Traces); i++ {
		if res.Traces[i-1].Latency < res.Traces[i].Latency {
			t.Fatalf("traces not slowest-first: %v then %v", res.Traces[i-1].Latency, res.Traces[i].Latency)
		}
	}

	cfg2 := benchConfig(200, 5)
	s2 := NewSimulation(cfg2, protocol.Locaware{})
	res2 := s2.RunMeasured(0, 100)
	if res2.Traces != nil || res2.TraceProcessing != 0 {
		t.Fatalf("untraced run carries trace state: %d traces, processing %v", len(res2.Traces), res2.TraceProcessing)
	}
}

// tee hands every event to both the raw log and the recorder.
type tee struct {
	log []trace.Event
	rec *trace.FlightRecorder
}

func (t *tee) Emit(e trace.Event) {
	t.log = append(t.log, e)
	t.rec.Emit(e)
}

// TestKeepAllRecorderIsTheRawStream is the oracle behind locaware-trace's
// one sink: a recorder whose slowest-N heap is as large as the run keeps
// every query, and each kept trace is exactly the raw stream's events for
// that query in emission order, less the finalize marker the recorder
// consumes; its phases are exactly the raw stream's phase entries. Small
// randomized worlds, three protocols, static and under churn-waves.
func TestKeepAllRecorderIsTheRawStream(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, b := range []protocol.Behavior{protocol.Flooding{}, protocol.Dicas{}, protocol.Locaware{}} {
		for _, scen := range []string{"", "churn-waves"} {
			seed, warmup, measured := r.Int63n(1000)+1, r.Intn(20), 40+r.Intn(40)
			cfg := smallConfig(seed)
			cfg.NumPeers = 60 + r.Intn(60)
			if scen != "" {
				cfg.Scenario, _ = scenario.Lookup(scen)
			}
			s := NewSimulation(cfg, b)
			sink := &tee{rec: trace.NewFlightRecorder(trace.Policy{SlowestN: warmup + measured, MaxEventsPerQuery: 1 << 20})}
			s.Network.SetTracer(sink)
			s.RunMeasured(warmup, measured)

			want := map[uint64][]trace.Event{}
			var phases []trace.Event
			for _, e := range sink.log {
				switch {
				case e.Kind == trace.PhaseEnter:
					phases = append(phases, e)
				case e.Kind != trace.QueryFinalize:
					want[e.Query] = append(want[e.Query], e)
				}
			}
			label := fmt.Sprintf("%s/%q seed %d", b.Name(), scen, seed)
			kept := sink.rec.Traces()
			if len(kept) != warmup+measured || len(want) != len(kept) {
				t.Fatalf("%s: recorder kept %d traces, raw stream has %d queries, run submitted %d",
					label, len(kept), len(want), warmup+measured)
			}
			for _, qt := range kept {
				if !slices.Equal(qt.Events, want[qt.Query]) || qt.Dropped != 0 {
					t.Fatalf("%s: query %d: recorder kept %d events (%d dropped), raw stream has %d",
						label, qt.Query, len(qt.Events), qt.Dropped, len(want[qt.Query]))
				}
			}
			if got := sink.rec.Phases(); !slices.Equal(got, phases) {
				t.Fatalf("%s: recorder phases %v, raw stream %v", label, got, phases)
			}
			if scen != "" && len(phases) != 4 {
				t.Fatalf("%s: %d phase entries, want 4", label, len(phases))
			}
		}
	}
}

// keepAllRuns runs each baseline protocol, static and under churn-waves, on
// a 300-peer world with a keep-all recorder, and hands check each run.
func keepAllRuns(t *testing.T, check func(label string, s *Simulation, res *RunResult)) {
	const warmup, measured = 40, 120
	for _, b := range Baselines() {
		for _, scen := range []string{"", "churn-waves"} {
			cfg := benchConfig(300, 17)
			cfg.TracePolicy = &trace.Policy{SlowestN: warmup + measured, MaxEventsPerQuery: 1 << 20}
			cfg.Scenario, _ = scenario.Lookup(scen)
			s := NewSimulation(cfg, b)
			check(fmt.Sprintf("%s/%q", b.Name(), scen), s, s.RunMeasured(warmup, measured))
		}
	}
}

// TestSpanTreeForwardsMatchTheModel is the span builder's ground truth: a
// forward or a response hop is delivered exactly its link's one-way latency
// plus the processing delay after it is sent, so every closed link span of
// every query, kept by a keep-all recorder, must last exactly that long. A
// span hung under the wrong link reads another link's latency. Four
// protocols, static and under churn-waves.
func TestSpanTreeForwardsMatchTheModel(t *testing.T) {
	keepAllRuns(t, func(label string, s *Simulation, res *RunResult) {
		closed := map[trace.Kind]int{}
		wrong := 0
		var walk func(*trace.Span)
		walk = func(sp *trace.Span) {
			if (sp.Kind == trace.QueryForward || sp.Kind == trace.ResponseHop) && !sp.Open {
				closed[sp.Kind]++
				if sp.End-sp.Start != sim.FromMillis(s.Network.Model.OneWay(sp.From, sp.Peer))+res.TraceProcessing {
					wrong++
				}
			}
			for _, c := range sp.Children {
				walk(c)
			}
		}
		for _, qt := range res.Traces {
			walk(qt.Tree(res.TraceProcessing).Root)
		}
		if closed[trace.QueryForward] == 0 || closed[trace.ResponseHop] == 0 || wrong != 0 {
			t.Errorf("%s: %d of %d closed link spans (%d forwards, %d response hops) on the wrong link", label, wrong,
				closed[trace.QueryForward]+closed[trace.ResponseHop], closed[trace.QueryForward], closed[trace.ResponseHop])
		}
	})
}

// TestTraceHopsMatchTheTree: a retained trace's Hops, which the recorder
// keeps while the query is in flight, is the deepest chain of forwards in
// the trace's own span tree. MinHops retention keys on it.
func TestTraceHopsMatchTheTree(t *testing.T) {
	keepAllRuns(t, func(label string, _ *Simulation, res *RunResult) {
		var deepest func(*trace.Span) int
		deepest = func(sp *trace.Span) int {
			d := 0
			for _, c := range sp.Children {
				d = max(d, deepest(c))
			}
			if sp.Kind == trace.QueryForward {
				d++
			}
			return d
		}
		bad, deep := 0, 0
		for _, qt := range res.Traces {
			if qt.Hops != deepest(qt.Tree(res.TraceProcessing).Root) {
				bad++
			}
			deep = max(deep, qt.Hops)
		}
		if bad != 0 || deep < 2 {
			t.Errorf("%s: %d of %d traces disagree with their tree on Hops (deepest %d)", label, bad, len(res.Traces), deep)
		}
	})
}

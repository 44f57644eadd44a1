package core

import (
	"reflect"
	"testing"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
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

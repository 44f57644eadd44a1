package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
)

// runTrials is the one-behaviour case of the comparison runner.
func runTrials(cfg Config, b protocol.Behavior, topt TrialOptions, warmup, measured int) *TrialCell {
	return RunTrialComparison(cfg, []protocol.Behavior{b}, topt, warmup, measured, nil).Cells[b.Name()]
}

func TestRunTrialsSingleTrialMatchesSequentialRun(t *testing.T) {
	cfg := smallConfig(21)
	cell := runTrials(cfg, protocol.Locaware{}, TrialOptions{Trials: 1}, 20, 60)
	// The runner threads its figure grid into every run's collector; the
	// direct run carries the same grid so the two are comparable whole.
	direct := cfg
	direct.Protocol.Collector.Checkpoints = normalizeCheckpoints(nil, 60)
	seq := NewSimulation(direct, protocol.Locaware{}).RunMeasured(20, 60)
	if len(cell.Runs) != 1 || cell.Seeds[0] != cfg.Seed {
		t.Fatalf("cell shape: seeds=%v runs=%d", cell.Seeds, len(cell.Runs))
	}
	if !reflect.DeepEqual(cell.Runs[0], seq) {
		t.Fatalf("single trial diverged from sequential run:\n%+v\nvs\n%+v", cell.Runs[0], seq)
	}
	if cell.Summary.SuccessRate.N != 1 || cell.Summary.SuccessRate.Mean != seq.Collector.SuccessRate() {
		t.Fatalf("summary = %+v", cell.Summary.SuccessRate)
	}
}

func TestRunTrialsWorkerCountInvariant(t *testing.T) {
	cfg := smallConfig(22)
	cfg.NumPeers = 120
	a := runTrials(cfg, protocol.Locaware{}, TrialOptions{Trials: 4, Workers: 1}, 10, 40)
	b := runTrials(cfg, protocol.Locaware{}, TrialOptions{Trials: 4, Workers: 8}, 10, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Workers=1 and Workers=8 produced different aggregated results")
	}
}

func TestRunTrialsSeedsIndependent(t *testing.T) {
	cfg := smallConfig(23)
	cfg.NumPeers = 120
	cell := runTrials(cfg, protocol.Flooding{}, TrialOptions{Trials: 3, Workers: 0}, 0, 40)
	if len(cell.Runs) != 3 {
		t.Fatalf("runs = %d", len(cell.Runs))
	}
	for tr := 1; tr < 3; tr++ {
		if cell.Seeds[tr] == cell.Seeds[0] {
			t.Fatalf("trial %d reused trial 0's seed", tr)
		}
		if cell.Runs[tr].Events == cell.Runs[0].Events &&
			cell.Runs[tr].Collector.TotalMessages() == cell.Runs[0].Collector.TotalMessages() {
			t.Fatalf("trial %d is byte-identical to trial 0: seeds not independent", tr)
		}
	}
	if cell.Summary.SuccessRate.StdDev == 0 && cell.Summary.MessagesPerQuery.StdDev == 0 {
		t.Fatal("independent trials show zero spread on every metric")
	}
}

func TestTrialComparisonWorkerCountInvariant(t *testing.T) {
	cfg := smallConfig(24)
	cfg.NumPeers = 120
	behaviors := []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}
	a := RunTrialComparison(cfg, behaviors, TrialOptions{Trials: 3, Workers: 1}, 10, 40, []int{20, 40})
	b := RunTrialComparison(cfg, behaviors, TrialOptions{Trials: 3, Workers: 8}, 10, 40, []int{20, 40})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trial comparison differs across worker counts")
	}
}

// TestTrialComparisonSingleTrialMatchesCollectorWindows locks the one-trial
// case of the comparison: every figure point is the run's own sealed window
// value — compared with ==, no aggregation arithmetic in between — and the
// series carry no error bars.
func TestTrialComparisonSingleTrialMatchesCollectorWindows(t *testing.T) {
	cfg := smallConfig(25)
	tc := RunTrialComparison(cfg, Baselines(), TrialOptions{Trials: 1, Workers: 4}, 20, 60, nil)
	if tc.Trials != 1 || len(tc.Checkpoints) != 10 {
		t.Fatalf("shape: trials=%d checkpoints=%v", tc.Trials, tc.Checkpoints)
	}
	pick := map[string]func(metrics.PhaseWindow) float64{
		Fig2DownloadDistance: func(w metrics.PhaseWindow) float64 { return w.DownloadRTT },
		Fig3SearchTraffic:    func(w metrics.PhaseWindow) float64 { return w.MessagesPerQuery },
		Fig4SuccessRate:      func(w metrics.PhaseWindow) float64 { return w.SuccessRate },
	}
	for fig, y := range pick {
		for i, s := range tc.FigureSeries(fig) {
			name := tc.Order[i]
			if len(tc.Cells[name].Runs) != 1 {
				t.Fatalf("%s: %d runs, want 1", name, len(tc.Cells[name].Runs))
			}
			windows := tc.Cells[name].Runs[0].Collector.Windows()
			if s.Name != name || len(s.Xs) != len(windows) || s.HasErrs() {
				t.Fatalf("%s/%s: series %q has %d points (errs=%v), run has %d windows",
					fig, name, s.Name, len(s.Xs), s.HasErrs(), len(windows))
			}
			for j, w := range windows {
				if s.Xs[j] != float64(w.End) || s.Ys[j] != y(w) {
					t.Fatalf("%s/%s point %d: series (%v, %v) != window (%d, %v)",
						fig, name, j, s.Xs[j], s.Ys[j], w.End, y(w))
				}
			}
		}
	}
}

func TestTrialComparisonPairedAcrossBehaviors(t *testing.T) {
	// Trial t of every behaviour must share one world: same seed per trial
	// index keeps the comparison paired, trial by trial.
	cfg := smallConfig(26)
	cfg.NumPeers = 120
	tc := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Dicas{}},
		TrialOptions{Trials: 2, Workers: 4}, 0, 30, nil)
	fl, di := tc.Cells["Flooding"], tc.Cells["Dicas"]
	if !reflect.DeepEqual(fl.Seeds, di.Seeds) {
		t.Fatalf("behaviours saw different trial seeds: %v vs %v", fl.Seeds, di.Seeds)
	}
}

func TestTrialComparisonFigureSeriesErrorBars(t *testing.T) {
	cfg := smallConfig(27)
	cfg.NumPeers = 120
	tc := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}},
		TrialOptions{Trials: 3, Workers: 0}, 10, 60, []int{30, 60})
	for _, fig := range []string{Fig2DownloadDistance, Fig3SearchTraffic, Fig4SuccessRate} {
		series := tc.FigureSeries(fig)
		if len(series) != 2 {
			t.Fatalf("%s: %d series", fig, len(series))
		}
		for _, s := range series {
			if len(s.Xs) != 2 {
				t.Fatalf("%s/%s: %d points", fig, s.Name, len(s.Xs))
			}
			if !s.HasErrs() || len(s.Errs) != len(s.Xs) {
				t.Fatalf("%s/%s: missing error bars", fig, s.Name)
			}
		}
	}
	if got := tc.FigureSeries("not-a-figure"); len(got[0].Xs) != 0 {
		t.Fatal("unknown figure should yield empty series")
	}
}

func TestTrialHeadlines(t *testing.T) {
	cfg := smallConfig(28)
	cfg.NumPeers = 120
	tc := RunTrialComparison(cfg, Baselines(), TrialOptions{Trials: 2, Workers: 0}, 50, 100, nil)
	h := tc.Headlines()
	if h.TrafficReductionVsFlooding >= 0 {
		t.Fatalf("traffic reduction = %v, want negative", h.TrafficReductionVsFlooding)
	}
	partial := RunTrialComparison(cfg, []protocol.Behavior{protocol.Locaware{}},
		TrialOptions{Trials: 1}, 0, 20, nil)
	_ = partial.Headlines()
	empty := &TrialComparison{Cells: map[string]*TrialCell{}}
	_ = empty.Headlines()
}

// TestTrialsHammer runs many small trials at high worker counts; under
// -race it catches any shared state leaking between engines (e.g. an
// accidental global RNG or collector). The deep-equal against a sequential
// pass additionally proves scheduling cannot perturb results.
func TestTrialsHammer(t *testing.T) {
	cfg := smallConfig(29)
	cfg.NumPeers = 60
	behaviors := Baselines()
	par := RunTrialComparison(cfg, behaviors, TrialOptions{Trials: 6, Workers: 16}, 0, 15, nil)
	seq := RunTrialComparison(cfg, behaviors, TrialOptions{Trials: 6, Workers: 1}, 0, 15, nil)
	if !reflect.DeepEqual(par, seq) {
		t.Fatal("hammered parallel run diverged from sequential run")
	}
}

// TestParallelSpeedup demonstrates the orchestrator's point: an 8-trial
// cell with Workers=4 must finish at least 2x faster than Workers=1 on
// multi-core hardware, with identical aggregated output. The timing
// assertion needs >= 4 CPUs and a non-short run; the output-identity
// assertion always holds.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	cfg := smallConfig(30)
	topt := func(w int) TrialOptions { return TrialOptions{Trials: 8, Workers: w} }

	t0 := time.Now()
	seq := runTrials(cfg, protocol.Locaware{}, topt(1), 50, 150)
	seqDur := time.Since(t0)

	t0 = time.Now()
	par := runTrials(cfg, protocol.Locaware{}, topt(4), 50, 150)
	parDur := time.Since(t0)

	if !reflect.DeepEqual(seq, par) {
		t.Fatal("Workers=4 aggregated output differs from Workers=1")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("have %d CPUs; speedup assertion needs >= 4 (seq=%v par=%v)",
			runtime.NumCPU(), seqDur, parDur)
	}
	if speedup := seqDur.Seconds() / parDur.Seconds(); speedup < 2 {
		t.Fatalf("Workers=4 speedup %.2fx < 2x (seq=%v par=%v)", speedup, seqDur, parDur)
	} else {
		t.Logf("Workers=4 speedup: %.2fx (seq=%v par=%v)", speedup, seqDur, parDur)
	}
}

func TestTrialOptionsDefaults(t *testing.T) {
	if (TrialOptions{}).trials() != 1 || (TrialOptions{Trials: -3}).trials() != 1 {
		t.Fatal("trial floor broken")
	}
	if (TrialOptions{Trials: 5}).trials() != 5 {
		t.Fatal("trial count lost")
	}
	// Trial 0 must always reuse the root seed (sequential reproducibility).
	if sim.TrialSeed(99, 0) != 99 {
		t.Fatal("trial 0 seed not identity")
	}
}

package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
)

// runTrials is the one-behaviour case of the comparison runner.
func runTrials(cfg Config, b protocol.Behavior, trials, warmup, measured, workers int) *TrialCell {
	return RunTrialComparison(cfg, []protocol.Behavior{b}, trials, warmup, measured, workers).Cells[b.Name()]
}

func TestRunTrialsSingleTrialMatchesSequentialRun(t *testing.T) {
	cfg := smallConfig(21)
	cell := runTrials(cfg, protocol.Locaware{}, 1, 20, 60, 0)
	// The runner threads its figure grid into every run's collector; the
	// direct run carries the same grid so the two are comparable whole.
	direct := cfg
	direct.Protocol.Collector.Checkpoints = tenSteps(60)
	seq := NewSimulation(direct, protocol.Locaware{}).RunMeasured(20, 60)
	if len(cell.Runs) != 1 {
		t.Fatalf("cell shape: runs=%d", len(cell.Runs))
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
	a := runTrials(cfg, protocol.Locaware{}, 4, 10, 40, 1)
	b := runTrials(cfg, protocol.Locaware{}, 4, 10, 40, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Workers=1 and Workers=8 produced different aggregated results")
	}
}

func TestRunTrialsSeedsIndependent(t *testing.T) {
	cfg := smallConfig(23)
	cfg.NumPeers = 120
	cell := runTrials(cfg, protocol.Flooding{}, 3, 0, 40, 0)
	if len(cell.Runs) != 3 {
		t.Fatalf("runs = %d", len(cell.Runs))
	}
	for tr := 1; tr < 3; tr++ {
		if cell.Runs[tr].Events == cell.Runs[0].Events &&
			cell.Runs[tr].Collector.TotalMessages() == cell.Runs[0].Collector.TotalMessages() {
			t.Fatalf("trial %d is byte-identical to trial 0: seeds not independent", tr)
		}
	}
	if cell.Summary.SuccessRate.StdDev == 0 && cell.Summary.AvgMessagesPerQuery.StdDev == 0 {
		t.Fatal("independent trials show zero spread on every metric")
	}
}

func TestTrialComparisonWorkerCountInvariant(t *testing.T) {
	cfg := smallConfig(24)
	cfg.NumPeers = 120
	cfg.Protocol.Collector.Checkpoints = []int{20, 40}
	behaviors := []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}
	a := RunTrialComparison(cfg, behaviors, 3, 10, 40, 1)
	b := RunTrialComparison(cfg, behaviors, 3, 10, 40, 8)
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
	tc := RunTrialComparison(cfg, Baselines(), 1, 20, 60, 4)
	if w := tc.Cells["Locaware"].Runs[0].Collector.Windows(); tc.Trials != 1 || len(w) != 10 {
		t.Fatalf("shape: trials=%d windows=%d, want ten equal steps", tc.Trials, len(w))
	}
	pick := map[string]func(metrics.PhaseWindow) float64{
		Fig2DownloadDistance: func(w metrics.PhaseWindow) float64 { return w.AvgDownloadRTTMs },
		Fig3SearchTraffic:    func(w metrics.PhaseWindow) float64 { return w.AvgMessagesPerQuery },
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
	// Trial t of every behaviour must share one world: every behaviour's
	// trial t is the run at trial seed t, which keeps the comparison paired,
	// trial by trial.
	cfg := smallConfig(26)
	cfg.NumPeers = 120
	behaviors := []protocol.Behavior{protocol.Flooding{}, protocol.Dicas{}}
	tc := RunTrialComparison(cfg, behaviors, 2, 0, 30, 4)
	for _, b := range behaviors {
		for tr, run := range tc.Cells[b.Name()].Runs {
			direct := cfg
			direct.Seed = sim.TrialSeed(cfg.Seed, tr)
			direct.Protocol.Collector.Checkpoints = tenSteps(30)
			if !reflect.DeepEqual(run, NewSimulation(direct, b).RunMeasured(0, 30)) {
				t.Fatalf("%s trial %d is not the run at trial seed %d", b.Name(), tr, tr)
			}
		}
	}
}

func TestTrialComparisonFigureSeriesErrorBars(t *testing.T) {
	cfg := smallConfig(27)
	cfg.NumPeers = 120
	cfg.Protocol.Collector.Checkpoints = []int{30, 60}
	tc := RunTrialComparison(cfg, []protocol.Behavior{protocol.Flooding{}, protocol.Locaware{}}, 3, 10, 60, 0)
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
	tc := RunTrialComparison(cfg, Baselines(), 2, 50, 100, 0)
	h := tc.Headlines()
	if h.TrafficReductionVsFlooding >= 0 {
		t.Fatalf("traffic reduction = %v, want negative", h.TrafficReductionVsFlooding)
	}
	partial := RunTrialComparison(cfg, []protocol.Behavior{protocol.Locaware{}},
		1, 0, 20, 0)
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
	par := RunTrialComparison(cfg, behaviors, 6, 0, 15, 16)
	seq := RunTrialComparison(cfg, behaviors, 6, 0, 15, 1)
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
	t0 := time.Now()
	seq := runTrials(cfg, protocol.Locaware{}, 8, 50, 150, 1)
	seqDur := time.Since(t0)

	t0 = time.Now()
	par := runTrials(cfg, protocol.Locaware{}, 8, 50, 150, 4)
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

// TestRunGrid locks the one fan-out: over three scenario configs × the
// four baselines × 2 trials, in both behaviour orders, sink sees each
// (config, behaviour) once, in index order, with its runs in trial order,
// and every run equals the direct run at its trial seed for workers 1, 2
// and 8. The scenarios mutate what a world hands each run as its own: the
// graph (steady-churn), the catalogue (content-shift's injected files) and
// the model's factors (regional-outage). Reversing the behaviours hands the
// world's originals to a different run.
func TestRunGrid(t *testing.T) {
	var cfgs []Config
	for i, scen := range []string{"steady-churn", "content-shift", "regional-outage"} {
		cfg := smallConfig(int64(31 + i))
		cfg.NumPeers = 60 + 10*i
		cfg.Gen.RatePerPeer = 0.002 // 25 queries span several 60 s churn ticks
		cfg.Scenario, _ = scenario.Lookup(scen)
		cfgs = append(cfgs, cfg)
	}
	const trials, warmup, measured = 2, 5, 20
	direct := map[string]*RunResult{}
	want := func(c int, b protocol.Behavior, tr int) *RunResult {
		key := fmt.Sprint(c, b.Name(), tr)
		if direct[key] == nil {
			cfg := cfgs[c]
			cfg.Seed = sim.TrialSeed(cfg.Seed, tr)
			direct[key] = NewSimulation(cfg, b).RunMeasured(warmup, measured)
		}
		return direct[key]
	}
	forward := protocol.Baselines()
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	for _, behaviors := range [][]protocol.Behavior{forward, reversed} {
		for _, workers := range []int{1, 2, 8} {
			sunk := 0
			RunGrid(cfgs, behaviors, trials, warmup, measured, workers, func(c, bi int, runs []*RunResult) {
				b := behaviors[bi]
				if c*len(behaviors)+bi != sunk {
					t.Fatalf("workers %d: sink got (config %d, %s) at position %d", workers, c, b.Name(), sunk)
				}
				sunk++
				if len(runs) != trials {
					t.Fatalf("workers %d: (config %d, %s) has %d runs, want %d", workers, c, b.Name(), len(runs), trials)
				}
				for tr, run := range runs {
					if !reflect.DeepEqual(run, want(c, b, tr)) {
						t.Fatalf("workers %d, %s first: config %d %s trial %d is not the run at its trial seed",
							workers, behaviors[0].Name(), c, b.Name(), tr)
					}
				}
			})
			if sunk != len(cfgs)*len(behaviors) {
				t.Fatalf("workers %d: sink called %d times, want %d", workers, sunk, len(cfgs)*len(behaviors))
			}
		}
	}
}

package core

import (
	"sync"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/stats"
)

// TrialSummary holds cross-trial sample statistics of the headline run
// metrics; each Summary's N is the trial count.
type TrialSummary struct {
	// PhaseStats is the whole-run window (0, measured] across trials: the
	// six query metrics.
	metrics.PhaseStats
	ControlMessages stats.Summary
	ControlKbits    stats.Summary
	CachedFilenames stats.Summary
}

// TrialCell is one (behaviour × config) experiment cell replicated across
// trials: per-trial run results in trial order plus their aggregation.
type TrialCell struct {
	// Runs[t] is trial t's full result.
	Runs []*RunResult
	// Summary aggregates the headline metrics across trials.
	Summary TrialSummary
	// PhaseStats aggregates the scenario phase windows across trials,
	// phase-aligned — per-phase mean ± CI error bars. Nil unless the cell
	// ran under a scenario.
	PhaseStats []metrics.PhaseStats
}

// aggregateRuns pools one window list per run, position-aligned across
// trials (nil when no run has a window).
func aggregateRuns(runs []*RunResult, windows func(*metrics.Collector) []metrics.PhaseWindow) []metrics.PhaseStats {
	perTrial := make([][]metrics.PhaseWindow, len(runs))
	for i, r := range runs {
		perTrial[i] = windows(r.Collector)
	}
	return metrics.AggregatePhases(perTrial)
}

// AggregateRunPhases aggregates every run's scenario-phase windows
// phase-aligned across trials. It returns nil when the runs carry no phase
// windows (no scenario configured).
func AggregateRunPhases(runs []*RunResult) []metrics.PhaseStats {
	return aggregateRuns(runs, (*metrics.Collector).PhaseWindows)
}

// SummarizeTrials aggregates the headline run metrics of replicated runs
// (at least one) into cross-trial sample statistics, folding values in run
// (trial) order so equal run sequences always produce bit-identical float
// sums.
func SummarizeTrials(runs []*RunResult) TrialSummary {
	n := len(runs)
	ctl := make([]float64, 0, n)
	kbit := make([]float64, 0, n)
	cached := make([]float64, 0, n)
	for _, r := range runs {
		ctl = append(ctl, float64(r.ControlMessages))
		kbit = append(kbit, float64(r.ControlBits)/1000)
		cached = append(cached, float64(r.CacheFilenames))
	}
	whole := aggregateRuns(runs, func(c *metrics.Collector) []metrics.PhaseWindow {
		return []metrics.PhaseWindow{c.RunWindow()}
	})
	return TrialSummary{
		PhaseStats:      whole[0],
		ControlMessages: stats.Summarize(ctl),
		ControlKbits:    stats.Summarize(kbit),
		CachedFilenames: stats.Summarize(cached),
	}
}

// TrialComparison is a paired multi-protocol, multi-trial experiment: every
// behaviour sees the identical sequence of trial worlds (trial t of every
// behaviour shares one seed, hence one topology, placement and workload),
// so each trial is a paired comparison. One behaviour or one trial is the
// same experiment with that dimension pinned to 1.
type TrialComparison struct {
	// Cells maps protocol name to its replicated cell.
	Cells map[string]*TrialCell
	// Order preserves behaviour order for stable presentation.
	Order []string
	// Trials is the replication count.
	Trials int
}

// TrialCount is the number of trials a request for n runs: n, or one when
// n is below 1.
func TrialCount(n int) int { return max(n, 1) }

// RunGrid is the one fan-out of paired runs: it maps job j to a (config,
// trial, behaviour) triple across one worker pool (workers <= 0 means one
// per CPU). Trial t of cfgs[c] runs under sim.TrialSeed(cfgs[c].Seed, t);
// everything else in the config is shared, so the trials sample seed space
// at one parameter point. A trial's behaviours are cut from one World,
// built by the first of its jobs to start and released after its last: the
// last run cut gets its graph and catalogue, the others copies. Warmup
// queries run first and their records are discarded. sink receives each
// (config, behaviour)'s runs in trial order, configs and behaviours in
// index order, on the calling goroutine. Results are identical for every
// worker count.
func RunGrid(cfgs []Config, behaviors []protocol.Behavior, trials, warmup, measured, workers int, sink func(cfg, behavior int, runs []*RunResult)) {
	trials = TrialCount(trials)
	nb := len(behaviors)
	worlds := make([]*World, len(cfgs)*trials) // by config*trials + trial
	built := make([]sync.Once, len(worlds))
	cell := make([][]*RunResult, nb) // the config's runs by behaviour
	Stream(len(worlds)*nb, workers, func(j int) *RunResult {
		k := j / nb
		built[k].Do(func() {
			cfg := cfgs[k/trials]
			cfg.Seed = sim.TrialSeed(cfg.Seed, k%trials)
			worlds[k] = NewWorld(cfg, nb)
		})
		return worlds[k].Simulation(behaviors[j%nb]).RunMeasured(warmup, measured)
	}, func(j int, r *RunResult) {
		k, b := j/nb, j%nb
		if cell[b] = append(cell[b], r); b < nb-1 {
			return
		}
		worlds[k] = nil
		if k%trials < trials-1 {
			return
		}
		for b, runs := range cell {
			sink(k/trials, b, runs)
			cell[b] = nil
		}
	})
}

// RunTrialComparison runs every behaviour over the same trials of cfg
// through RunGrid. The figure checkpoints are cfg's collector checkpoints,
// ten equal steps when none are set; the streaming collector seals their
// windows during each run.
func RunTrialComparison(cfg Config, behaviors []protocol.Behavior, trials, warmup, measured, workers int) *TrialComparison {
	if len(cfg.Protocol.Collector.Checkpoints) == 0 {
		cfg.Protocol.Collector.Checkpoints = tenSteps(measured)
	}
	cmp := &TrialComparison{Cells: make(map[string]*TrialCell, len(behaviors))}
	RunGrid([]Config{cfg}, behaviors, trials, warmup, measured, workers, func(_, b int, runs []*RunResult) {
		name := behaviors[b].Name()
		cmp.Cells[name] = &TrialCell{Runs: runs, Summary: SummarizeTrials(runs), PhaseStats: AggregateRunPhases(runs)}
		cmp.Order = append(cmp.Order, name)
		cmp.Trials = len(runs)
	})
	return cmp
}

// FigureSeries extracts a figure's curves with cross-trial error bars: one
// series per protocol, y = the trial-mean windowed metric at each
// checkpoint, err = its 95% confidence half-width. With a single trial the
// means are the run's own window values and no error bars are attached, so
// tables and CSV render bare numbers. Per-window values expose the trends
// the paper reports (Locaware's download distance improving as replication
// spreads providers, the others staying flat).
func (c *TrialComparison) FigureSeries(fig string) []*stats.Series {
	m, known := metrics.MetricByKey(figureMetric[fig])
	var out []*stats.Series
	for _, name := range c.Order {
		cell := c.Cells[name]
		s := &stats.Series{Name: name}
		out = append(out, s)
		if !known {
			continue
		}
		for _, w := range aggregateRuns(cell.Runs, (*metrics.Collector).Windows) {
			y := m.Of(&w)
			if c.Trials > 1 {
				s.AddErr(float64(w.End), y.Mean, y.CI95())
			} else {
				s.Add(float64(w.End), y.Mean)
			}
		}
	}
	return out
}

// Headlines computes the paper's headline claims from trial-mean metrics
// (a single trial's means are its final cumulative values).
func (c *TrialComparison) Headlines() Headline {
	la := c.Cells["Locaware"]
	fl := c.Cells["Flooding"]
	di := c.Cells["Dicas"]
	dk := c.Cells["Dicas-Keys"]
	var h Headline
	if la == nil {
		return h
	}
	if fl != nil && di != nil && dk != nil {
		others := (fl.Summary.DownloadRTT.Mean + di.Summary.DownloadRTT.Mean + dk.Summary.DownloadRTT.Mean) / 3
		h.DistanceReduction = stats.RelativeChange(others, la.Summary.DownloadRTT.Mean)
	}
	if fl != nil {
		h.TrafficReductionVsFlooding = stats.RelativeChange(
			fl.Summary.MessagesPerQuery.Mean, la.Summary.MessagesPerQuery.Mean)
	}
	if di != nil {
		h.HitGainVsDicas = stats.RelativeChange(di.Summary.SuccessRate.Mean, la.Summary.SuccessRate.Mean)
	}
	if dk != nil {
		h.HitGainVsDicasKeys = stats.RelativeChange(dk.Summary.SuccessRate.Mean, la.Summary.SuccessRate.Mean)
	}
	return h
}

package core

import (
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/stats"
)

// TrialOptions configures replicated execution of experiment cells.
type TrialOptions struct {
	// Trials is the number of independent replications per (behaviour ×
	// config) cell; values below 1 mean a single trial. Trial t runs on its
	// own Engine rooted at sim.TrialSeed(cfg.Seed, t), so trial 0
	// reproduces the sequential single-run output exactly.
	Trials int
	// Workers bounds how many simulations run concurrently; <= 0 selects
	// runtime.NumCPU(). The worker count never changes results, only
	// wall-clock time: every cell is an isolated engine with its own RNG
	// streams and results are gathered by index, not completion order.
	Workers int
}

func (t TrialOptions) trials() int {
	if t.Trials < 1 {
		return 1
	}
	return t.Trials
}

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
	// Checkpoints are the cumulative query counts of figure points.
	Checkpoints []int
	// Trials is the replication count.
	Trials int
}

// RunTrialComparison fans the full (behaviour × trial) grid out across one
// worker pool, so even a single-trial comparison parallelises across
// behaviours. Trial t's config is cfg with its Seed replaced by
// sim.TrialSeed(cfg.Seed, t); everything else is shared, so the trials
// sample seed space at one parameter point. Warmup queries run first and
// their records are discarded (0 disables warmup). Results are identical
// for every worker count.
func RunTrialComparison(cfg Config, behaviors []protocol.Behavior, topt TrialOptions, warmup, numQueries int, checkpoints []int) *TrialComparison {
	trials := topt.trials()
	cmp := &TrialComparison{
		Cells:       make(map[string]*TrialCell, len(behaviors)),
		Checkpoints: normalizeCheckpoints(checkpoints, numQueries),
		Trials:      trials,
	}
	seeds := make([]int64, trials)
	for t := range seeds {
		seeds[t] = sim.TrialSeed(cfg.Seed, t)
	}
	runs := make([]*RunResult, len(behaviors)*trials)
	Stream(len(runs), topt.Workers, func(j int) *RunResult {
		c := cfg
		c.Seed = seeds[j%trials]
		// Thread the figure grid into the run so the streaming collector
		// seals the windows during execution. The slice is shared read-only
		// across trials.
		c.Protocol.Collector.Checkpoints = cmp.Checkpoints
		return NewSimulation(c, behaviors[j/trials]).RunMeasured(warmup, numQueries)
	}, func(j int, r *RunResult) { runs[j] = r })
	for i, b := range behaviors {
		cell := &TrialCell{Runs: runs[i*trials : (i+1)*trials]}
		cell.Summary = SummarizeTrials(cell.Runs)
		cell.PhaseStats = AggregateRunPhases(cell.Runs)
		cmp.Cells[b.Name()] = cell
		cmp.Order = append(cmp.Order, b.Name())
	}
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

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

// TrialCell is one protocol's result at one experiment cell, replicated
// across trials: the cross-trial aggregates a comparison, a sweep and a
// checkpoint file share, plus the runs when the caller keeps them.
type TrialCell struct {
	// Protocol is the protocol name.
	Protocol string
	// Summary aggregates the headline metrics across trials.
	Summary TrialSummary
	// Phases aggregates the scenario phase windows across trials,
	// phase-aligned — per-phase mean ± CI error bars. Nil unless the cell
	// ran under a scenario.
	Phases []metrics.PhaseStats
	// Runs[t] is trial t's full result; nil in a sweep cell, which folds
	// its runs and drops them.
	Runs []*RunResult `json:"-"`
}

// NewTrialCell pools protocol's replicated runs (at least one) into its
// cell, folding values in run (trial) order so equal run sequences always
// produce bit-identical float sums. The cell does not keep the runs.
func NewTrialCell(protocol string, runs []*RunResult) TrialCell {
	n := len(runs)
	whole, perTrial := make([]metrics.PhaseWindow, n), make([][]metrics.PhaseWindow, n)
	phases := make([][]metrics.PhaseWindow, n)
	ctl, kbits, cached := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, r := range runs {
		whole[i] = r.Collector.RunWindow()
		perTrial[i], phases[i] = whole[i:i+1], r.Collector.PhaseWindows()
		ctl[i], kbits[i], cached[i] = float64(r.ControlMessages), float64(r.ControlBits)/1000, float64(r.CacheFilenames)
	}
	return TrialCell{Protocol: protocol, Phases: metrics.AggregatePhases(phases), Summary: TrialSummary{
		PhaseStats:      metrics.AggregatePhases(perTrial)[0],
		ControlMessages: stats.Summarize(ctl), ControlKbits: stats.Summarize(kbits), CachedFilenames: stats.Summarize(cached),
	}}
}

// TrialComparison is a paired multi-protocol, multi-trial experiment: every
// behaviour sees the identical sequence of trial worlds (trial t of every
// behaviour shares one seed, hence one topology, placement and workload),
// so each trial is a paired comparison. One behaviour or one trial is the
// same experiment with that dimension pinned to 1.
type TrialComparison struct {
	// Cells holds each behaviour's cell, runs attached, in behaviour order.
	Cells []TrialCell
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
	cmp := &TrialComparison{Cells: make([]TrialCell, 0, len(behaviors))}
	RunGrid([]Config{cfg}, behaviors, trials, warmup, measured, workers, func(_, b int, runs []*RunResult) {
		cell := NewTrialCell(behaviors[b].Name(), runs)
		cell.Runs = runs
		cmp.Cells = append(cmp.Cells, cell)
	})
	return cmp
}

// FigureSeries extracts the curves of the metric with the given key
// (metrics.Metrics) with cross-trial error bars: one series per protocol,
// y = the trial-mean windowed metric at each checkpoint, err = its 95%
// confidence half-width. With a single trial the means are the run's own
// window values and no error bars show, so tables and CSV render bare
// numbers. An unknown key yields empty series. Per-window values expose the
// trends the paper reports (Locaware's download distance improving as
// replication spreads providers, the others staying flat).
func (c *TrialComparison) FigureSeries(key string) []*stats.Series {
	m, known := metrics.MetricByKey(key)
	var out []*stats.Series
	for _, cell := range c.Cells {
		s := &stats.Series{Name: cell.Protocol}
		out = append(out, s)
		if !known {
			continue
		}
		perTrial := make([][]metrics.PhaseWindow, len(cell.Runs))
		for i, r := range cell.Runs {
			perTrial[i] = r.Collector.Windows()
		}
		for _, w := range metrics.AggregatePhases(perTrial) {
			s.Add(float64(w.End), *m.Of(&w))
		}
	}
	return out
}

// cell returns the named protocol's cell, or nil when it was not compared.
func (c *TrialComparison) cell(protocol string) *TrialCell {
	for i := range c.Cells {
		if c.Cells[i].Protocol == protocol {
			return &c.Cells[i]
		}
	}
	return nil
}

// Headlines computes the paper's headline claims from trial-mean metrics
// (a single trial's means are its final cumulative values).
func (c *TrialComparison) Headlines() Headline {
	la, fl, di, dk := c.cell("Locaware"), c.cell("Flooding"), c.cell("Dicas"), c.cell("Dicas-Keys")
	var h Headline
	if la == nil {
		return h
	}
	if fl != nil && di != nil && dk != nil {
		others := (fl.Summary.AvgDownloadRTTMs.Mean + di.Summary.AvgDownloadRTTMs.Mean + dk.Summary.AvgDownloadRTTMs.Mean) / 3
		h.DistanceReduction = stats.RelativeChange(others, la.Summary.AvgDownloadRTTMs.Mean)
	}
	if fl != nil {
		h.TrafficReductionVsFlooding = stats.RelativeChange(
			fl.Summary.AvgMessagesPerQuery.Mean, la.Summary.AvgMessagesPerQuery.Mean)
	}
	if di != nil {
		h.HitGainVsDicas = stats.RelativeChange(di.Summary.SuccessRate.Mean, la.Summary.SuccessRate.Mean)
	}
	if dk != nil {
		h.HitGainVsDicasKeys = stats.RelativeChange(dk.Summary.SuccessRate.Mean, la.Summary.SuccessRate.Mean)
	}
	return h
}

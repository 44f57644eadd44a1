// Package campaign runs a sweep campaign resumably. A sweep cell is
// byte-reproducible from (campaign content hash, cell index) alone —
// sweep.CellSeed derives its seed, sweep.Plan.RunCells its bytes — which
// makes a finished cell cacheable: Run executes a campaign in-process over
// Plan.RunCells, and the checkpoint Store writes one content-addressed file
// per finished cell (temp file + atomic rename), so a killed campaign
// resumes by computing only the missing subset.
//
// Resumed and freshly computed cells fold into the same index-addressed
// grid, so the exported CSV and figure bytes are identical however the
// cells were obtained. Stale state can never leak in: every checkpoint file
// carries the campaign's content hash (sweep.Plan.Hash covers the spec, the
// resolved seed/trials/protocol identity and the base configuration), and a
// mismatch re-runs the cell instead of merging it.
package campaign

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sweep"
)

// Options configures campaign execution. Instrumentation and tracing are
// not campaign options: set base.Obs / base.TracePolicy on the
// configuration handed to Run (both are excluded from the content hash, so
// checkpoints are shared with uninstrumented runs).
type Options struct {
	// Checkpoint is a directory receiving one content-addressed file per
	// finished cell; "" disables checkpointing. Files are bound to the
	// campaign's content hash — those from a different spec, seed, trial
	// count or base configuration are detected and skipped.
	Checkpoint string
	// Resume, with Checkpoint set, loads existing checkpoints and executes
	// only the missing cells; false re-runs everything (still writing
	// fresh checkpoints). Corrupted, truncated or foreign files are
	// reported in RunStats.Warnings and their cells re-run.
	Resume bool
	// Logf receives human-facing lines (resume counts, checkpoint
	// warnings, progress summaries); nil discards them. With Progress set
	// it is called from Run's ticker goroutine as well as the caller's.
	Logf func(format string, args ...any)
	// Progress, when > 0, prints one summary line per interval
	// (done/resumed counts, EWMA rate, ETA) on Logf.
	Progress time.Duration
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// RunStats reports how a campaign's cells were obtained.
type RunStats struct {
	// Cells is the grid size.
	Cells int
	// Resumed counts cells restored from the checkpoint store instead of
	// recomputed.
	Resumed int
	// Executed counts cells computed this run — the run counter the
	// resume contract is locked against: a resumed campaign executes
	// exactly Cells - Resumed cells.
	Executed int
	// Warnings collects non-fatal anomalies: skipped or rejected checkpoint
	// files, checkpoint write failures.
	Warnings []string
}

// prepared is Run's startup state: the resolved plan, the campaign shell,
// the optional checkpoint store, and the set of cells already satisfied
// from it.
type prepared struct {
	plan  *sweep.Plan
	camp  *sweep.Campaign
	store *Store
	done  []bool
	stats RunStats
}

// prepare resolves the spec into a plan, opens the checkpoint store when
// configured, and — when resuming — loads, verifies and installs every
// valid checkpointed cell into the campaign shell.
func prepare(base core.Config, spec *sweep.Spec, opt Options) (*prepared, error) {
	plan, err := sweep.NewPlan(base, spec)
	if err != nil {
		return nil, err
	}
	pr := &prepared{
		plan: plan,
		camp: plan.NewCampaign(),
		done: make([]bool, plan.NumCells()),
	}
	pr.stats.Cells = plan.NumCells()
	if opt.Checkpoint == "" {
		return pr, nil
	}
	pr.store, err = OpenStore(opt.Checkpoint, plan.Hash())
	if err != nil {
		return nil, err
	}
	if !opt.Resume {
		return pr, nil
	}
	loaded, warnings, err := pr.store.Load()
	if err != nil {
		return nil, err
	}
	pr.stats.Warnings = append(pr.stats.Warnings, warnings...)
	for _, w := range warnings {
		opt.logf("%s", w)
	}
	for idx, cr := range loaded {
		// The store already checked the campaign hash; VerifyCell guards
		// against the residual failure mode of a file that decodes but
		// carries the wrong identity (hand-edited, or a hash collision in
		// someone's nightmares).
		if err := plan.VerifyCell(cr); err != nil {
			warn := fmt.Sprintf("checkpoint for cell %d rejected: %v (cell will re-run)", idx, err)
			pr.stats.Warnings = append(pr.stats.Warnings, warn)
			opt.logf("%s", warn)
			continue
		}
		pr.camp.Cells[cr.Index] = *cr
		pr.done[cr.Index] = true
		pr.stats.Resumed++
	}
	opt.logf("resumed %d/%d cells from %s", pr.stats.Resumed, pr.stats.Cells, opt.Checkpoint)
	return pr, nil
}

// missing returns the cell indexes still to compute, ascending.
func (pr *prepared) missing() []int {
	var out []int
	for i, d := range pr.done {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// Run executes the campaign in-process; with a zero Options it is the
// plain whole-grid run. With checkpoint/resume configured, cells present
// in the checkpoint store are installed without recomputation, the
// missing subset runs through the same Plan.RunCells, and every freshly
// computed cell is checkpointed before the campaign completes. A
// checkpoint write that fails costs the cell its durability, not the
// campaign its result: the cell still folds, and the failure is one
// RunStats.Warnings entry. Output is byte-identical to an uninterrupted run
// of the same spec — resumed cells round-trip through JSON, which preserves
// every float bit — and the returned stats carry the resumed/executed split
// the resume contract is tested against.
func Run(base core.Config, spec *sweep.Spec, workers int, opt Options) (*sweep.Campaign, RunStats, error) {
	pr, err := prepare(base, spec, opt)
	if err != nil {
		return nil, RunStats{}, err
	}
	start := time.Now()
	var done atomic.Int64
	done.Store(int64(pr.stats.Resumed))
	if opt.Progress > 0 {
		// The loop gets the stats as they stand before any cell runs: the
		// cell callback below writes pr.stats while the loop is live.
		stats := pr.stats
		stop := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			runProgressLoop(opt, stats, &done, stop)
		}()
		// Wait the ticker out so no Logf call outlives Run.
		defer func() { close(stop); <-finished }()
	}
	err = pr.plan.RunCells(pr.missing(), workers, func(cr *sweep.CellResult) {
		if pr.store != nil {
			if err := pr.store.Put(cr); err != nil {
				// The cell still folds into the campaign; only its
				// durability is lost, and a later resume recomputes it.
				warn := fmt.Sprintf("checkpointing cell %d failed: %v", cr.Index, err)
				pr.stats.Warnings = append(pr.stats.Warnings, warn)
				opt.logf("%s", warn)
			}
		}
		pr.camp.Cells[cr.Index] = *cr
		pr.stats.Executed++
		done.Add(1)
	})
	if err != nil {
		return nil, pr.stats, err
	}
	pr.camp.Elapsed = time.Since(start)
	return pr.camp, pr.stats, nil
}

// runProgressLoop prints one line per interval with completion, rate and
// ETA, until the runner closes stop.
func runProgressLoop(opt Options, stats RunStats, done *atomic.Int64, stop <-chan struct{}) {
	rate := obs.NewRateEWMA(0)
	t := time.NewTicker(opt.Progress)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			d := done.Load()
			rate.Observe(float64(d), now)
			line := fmt.Sprintf("progress: %d/%d done (%d resumed)", d, stats.Cells, stats.Resumed)
			if r := rate.Rate(); r > 0 {
				line += fmt.Sprintf(", %.2f cells/s", r)
			}
			if eta, ok := rate.ETA(float64(stats.Cells) - float64(d)); ok {
				line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
			}
			opt.logf("%s", line)
		}
	}
}

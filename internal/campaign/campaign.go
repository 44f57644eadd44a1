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
	"time"

	"github.com/p2prepro/locaware/internal/core"
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
	// warnings, progress summaries) on Run's calling goroutine; nil
	// discards them.
	Logf func(format string, args ...any)
	// Progress, when > 0, logs a summary line (done/resumed counts, rate,
	// ETA) when a computed cell lands at least Progress after the last
	// line, or after Run started for the first. The rate is the cells
	// computed so far over the time since Run started.
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
	start := now()
	last := start
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
		if t := now(); opt.Progress > 0 && t.Sub(last) >= opt.Progress {
			last = t
			logProgress(opt, pr.stats, t.Sub(start))
		}
	})
	if err != nil {
		return nil, pr.stats, err
	}
	pr.camp.Elapsed = now().Sub(start)
	return pr.camp, pr.stats, nil
}

// now is Run's clock, a variable so a test can step it.
var now = time.Now

// logProgress logs one progress line: the cells done, the rate of the
// cells computed in the elapsed time, and the time the rest take at it.
func logProgress(opt Options, st RunStats, elapsed time.Duration) {
	done := st.Resumed + st.Executed
	eta := time.Duration(float64(elapsed) / float64(st.Executed) * float64(st.Cells-done))
	opt.logf("progress: %d/%d done (%d resumed), %.2f cells/s, eta %s",
		done, st.Cells, st.Resumed, float64(st.Executed)/elapsed.Seconds(), eta.Round(time.Second))
}

package campaign

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sweep"
	"github.com/p2prepro/locaware/internal/trace"
)

// Options configures campaign execution — shared by the in-process
// resumable runner, the coordinator and the worker.
type Options struct {
	// Checkpoint is the checkpoint directory; "" disables checkpointing.
	Checkpoint string
	// Resume, with Checkpoint set, loads existing checkpoints and executes
	// only the missing cells. False ignores (but overwrites) them.
	Resume bool
	// LeaseTimeout is how long the coordinator waits for a leased cell's
	// result before reissuing the lease to another worker; <= 0 selects
	// DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// Poll is the worker's delay between lease attempts when the
	// coordinator has nothing pending; <= 0 selects DefaultPoll.
	Poll time.Duration
	// Logf receives human-facing progress lines (resume counts, lease
	// reissues, per-cell completion); nil discards them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, attaches the observability registry: the
	// coordinator serves it on /metrics (plus pprof) and absorbs worker
	// counter deltas into it; a worker instruments its cell runs with it
	// and posts per-cell deltas; the in-process runner instruments its
	// cell runs. Instrumentation never changes campaign bytes or the
	// campaign content hash.
	Obs *obs.Registry
	// Progress, when > 0, replaces per-cell completion lines with one
	// summary line per interval (done/leased/resumed/reissued counts,
	// EWMA rate, ETA) on Logf.
	Progress time.Duration
	// TracePolicy, when non-nil, attaches a tail-sampling flight recorder
	// to every cell run; each completed cell then ships its worst-case
	// query trace (sweep.CellResult.Exemplar) to the coordinator, which
	// serves the collection on /traces. Like Obs, the policy is excluded
	// from the campaign content hash, so traced and untraced campaigns
	// share checkpoints and the coordinator/worker interlock still matches.
	TracePolicy *trace.Policy
}

// DefaultLeaseTimeout is the lease deadline when Options.LeaseTimeout is
// unset: generous enough for a large cell on a loaded machine, short
// enough that a dead worker's cells reissue within one coffee.
const DefaultLeaseTimeout = 2 * time.Minute

// DefaultPoll is the worker's idle poll interval when Options.Poll is
// unset.
const DefaultPoll = 200 * time.Millisecond

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) leaseTimeout() time.Duration {
	if o.LeaseTimeout <= 0 {
		return DefaultLeaseTimeout
	}
	return o.LeaseTimeout
}

func (o Options) poll() time.Duration {
	if o.Poll <= 0 {
		return DefaultPoll
	}
	return o.Poll
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
	// Reissued counts expired leases handed out again (coordinator only).
	Reissued int
	// Duplicates counts discarded double results (coordinator only).
	Duplicates int
	// Warnings collects non-fatal anomalies: skipped checkpoint files,
	// rejected results, checkpoint write failures.
	Warnings []string
}

// prepared is the common startup state of every campaign entry point: the
// resolved plan, the campaign shell, the optional checkpoint store, and
// the set of cells already satisfied from it.
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
// computed cell is checkpointed before the campaign completes. Output is
// byte-identical to an uninterrupted run of the same spec — resumed cells
// round-trip through JSON, which preserves every float bit — and the
// returned stats carry the resumed/executed split the resume contract is
// tested against.
func Run(base core.Config, spec *sweep.Spec, workers int, opt Options) (*sweep.Campaign, RunStats, error) {
	if opt.Obs != nil {
		// Instrument every cell run; Obs is excluded from the content
		// hash, so resumability and checkpoint identity are unchanged.
		base.Obs = opt.Obs
	}
	if opt.TracePolicy != nil {
		// Record every cell run; like Obs, the policy is hash-excluded.
		base.TracePolicy = opt.TracePolicy
	}
	pr, err := prepare(base, spec, opt)
	if err != nil {
		return nil, RunStats{}, err
	}
	start := time.Now()
	var done atomic.Int64
	done.Store(int64(pr.stats.Resumed))
	if opt.Progress > 0 {
		stop := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			runProgressLoop(opt, pr.stats, &done, stop)
		}()
		// Wait the ticker out so no Logf call outlives Run.
		defer func() { close(stop); <-finished }()
	}
	var putErr error
	err = pr.plan.RunCells(pr.missing(), workers, func(cr *sweep.CellResult) {
		if pr.store != nil {
			if err := pr.store.Put(cr); err != nil && putErr == nil {
				putErr = err
			}
		}
		pr.camp.Cells[cr.Index] = *cr
		pr.stats.Executed++
		done.Add(1)
	})
	if err == nil {
		err = putErr
	}
	if err != nil {
		return nil, pr.stats, err
	}
	pr.camp.Elapsed = time.Since(start)
	return pr.camp, pr.stats, nil
}

// runProgressLoop is the in-process analogue of the coordinator's
// progress summary: one line per interval with completion, rate and ETA,
// until the runner closes stop.
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

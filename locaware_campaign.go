package locaware

import (
	"context"
	"errors"
	"time"

	"github.com/p2prepro/locaware/internal/campaign"
	"github.com/p2prepro/locaware/internal/sweep"
)

// CampaignOptions configures distributed / resumable sweep execution:
// checkpointing and resume for every mode, lease handling for the
// coordinator, polling for workers.
type CampaignOptions struct {
	// Checkpoint is a directory receiving one content-addressed file per
	// finished cell; "" disables checkpointing. Checkpoints are bound to
	// the campaign's content hash (SweepFingerprint) — files from a
	// different spec, seed, trial count or base configuration are
	// detected and skipped.
	Checkpoint string
	// Resume, with Checkpoint set, loads existing checkpoints and
	// executes only the missing cells; false re-runs everything (still
	// writing fresh checkpoints). Corrupted, truncated or foreign files
	// are reported in CampaignStats.Warnings and their cells re-run.
	Resume bool
	// LeaseTimeout is how long the coordinator waits for a leased cell
	// before reissuing it to another worker (<= 0: 2 minutes).
	LeaseTimeout time.Duration
	// Poll is the worker's idle retry interval (<= 0: 200ms).
	Poll time.Duration
	// Logf receives progress lines (resume counts, lease reissues,
	// per-cell completions); nil discards them.
	Logf func(format string, args ...any)
	// Observer, when non-nil, attaches campaign observability: cell runs
	// are instrumented with it, the coordinator serves it on /metrics
	// (plus /debug/pprof/) alongside the lease protocol and absorbs
	// worker-posted counter deltas, and workers post their per-cell
	// deltas. Inert: campaign bytes and the content hash are unchanged.
	Observer *Observer
	// Progress, when > 0, replaces per-cell Logf lines with one summary
	// line per interval: done/leased/resumed/reissued counts, the EWMA
	// completion rate and an ETA.
	Progress time.Duration
	// FlightRecorder, when non-nil, attaches tail-sampling tracing to every
	// cell run; each completed cell then carries its worst-case query trace
	// as an exemplar (SweepResult.CellExemplar), workers ship exemplars to
	// the coordinator with their results, and the coordinator serves the
	// collection on /traces (and /traces?cell=N for one rendered timeline).
	// Like Observer, recording never changes campaign bytes or the content
	// hash, so traced and untraced processes interoperate.
	FlightRecorder *FlightRecorder
}

// CampaignStats reports how a campaign's cells were obtained: the grid
// size (Cells), how many were restored from checkpoints (Resumed) or
// computed this run (Executed — locally, or received from workers), the
// coordinator's Reissued leases and discarded Duplicates, and non-fatal
// Warnings (skipped checkpoint files, rejected results, failed writes).
type CampaignStats = campaign.RunStats

func (c CampaignOptions) lower() campaign.Options {
	opt := campaign.Options{
		Checkpoint:   c.Checkpoint,
		Resume:       c.Resume,
		LeaseTimeout: c.LeaseTimeout,
		Poll:         c.Poll,
		Logf:         c.Logf,
		Progress:     c.Progress,
		TracePolicy:  c.FlightRecorder,
	}
	if c.Observer != nil {
		opt.Obs = c.Observer.reg
	}
	return opt
}

// campaignSpec resolves the effective spec the campaign layer runs,
// applying the Options-level trials fallback in one place so every
// execution mode — in-process, checkpointed, coordinator, worker — agrees
// on the campaign identity (and therefore the content hash) given
// identical flags.
func campaignSpec(o Options, sw *Sweep) (*sweep.Spec, error) {
	if sw == nil {
		return nil, errors.New("locaware: nil *Sweep argument (obtain one from SweepByName, ParseSweep or LoadSweep)")
	}
	spec := *sw.spec
	if spec.Trials <= 0 && o.Trials > 0 {
		spec.Trials = o.Trials
	}
	return &spec, nil
}

// SweepFingerprint returns the campaign content hash of (o, sw): a
// SHA-256 over the spec, the resolved seed/trials/protocol identity and
// the base configuration. Two processes exchange campaign work only when
// their fingerprints match, and checkpoint files bind to it.
func SweepFingerprint(o Options, sw *Sweep) (string, error) {
	spec, err := campaignSpec(o, sw)
	if err != nil {
		return "", err
	}
	plan, err := sweep.NewPlan(o.coreConfig(), spec)
	if err != nil {
		return "", err
	}
	return plan.Hash(), nil
}

// RunSweepCheckpointed executes the campaign in-process, checkpointing
// every finished cell into copt.Checkpoint (when set) and — with
// copt.Resume — skipping cells already present there, so an interrupted
// campaign recomputes only the missing subset. Output is byte-identical
// to an uninterrupted RunSweep of the same options; the returned stats
// carry the resumed/executed split.
func RunSweepCheckpointed(o Options, sw *Sweep, copt CampaignOptions) (*SweepResult, CampaignStats, error) {
	spec, err := campaignSpec(o, sw)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	camp, stats, err := campaign.Run(o.coreConfig(), spec, o.Workers, copt.lower())
	if err != nil {
		return nil, stats, err
	}
	return &SweepResult{campaign: camp}, stats, nil
}

// ServeSweep runs a campaign coordinator: it binds addr, expands the
// sweep into leasable cells, serves them to workers over the HTTP lease
// protocol (/lease, /result, /status), reissues leases whose workers
// miss the deadline, deduplicates double results (first complete wins),
// checkpoints finished cells when copt.Checkpoint is set, and returns
// the folded result once every cell is in — byte-identical to an
// in-process RunSweep of the same options. It blocks until the campaign
// completes.
func ServeSweep(o Options, sw *Sweep, addr string, copt CampaignOptions) (*SweepResult, CampaignStats, error) {
	spec, err := campaignSpec(o, sw)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	coord, err := campaign.NewCoordinator(o.coreConfig(), spec, copt.lower())
	if err != nil {
		return nil, CampaignStats{}, err
	}
	camp, stats, err := coord.Serve(addr)
	if err != nil {
		return nil, stats, err
	}
	return &SweepResult{campaign: camp}, stats, nil
}

// WorkSweep runs a campaign worker against the coordinator at url: it
// resolves the identical sweep locally, refuses to execute jobs whose
// campaign fingerprint differs from its own (stale worker protection),
// and loops lease → execute cell at its cell-local seed → post result
// until the coordinator reports completion. o.Workers bounds the
// simulation pool used per cell. It returns the number of cells this
// worker computed.
func WorkSweep(o Options, sw *Sweep, url string, copt CampaignOptions) (int, error) {
	spec, err := campaignSpec(o, sw)
	if err != nil {
		return 0, err
	}
	w, err := campaign.NewWorker(o.coreConfig(), spec, url, o.Workers, copt.lower())
	if err != nil {
		return 0, err
	}
	return w.Run(context.Background())
}

package locaware

import (
	"errors"

	"github.com/p2prepro/locaware/internal/campaign"
	"github.com/p2prepro/locaware/internal/sweep"
)

// CampaignOptions configures resumable sweep execution: Checkpoint names a
// directory receiving one content-addressed file per finished cell (""
// disables checkpointing; files bind to SweepFingerprint), Resume loads
// existing checkpoints and executes only the missing cells, Logf receives
// resume counts, checkpoint warnings and — every Progress interval, when
// > 0 — a done/rate/ETA summary line. Instrumentation and tracing are not
// campaign options: set Options.Observer / Options.FlightRecorder, which
// reach every cell run.
type CampaignOptions = campaign.Options

// CampaignStats reports how a campaign's cells were obtained: the grid
// size (Cells), how many were restored from checkpoints (Resumed) or
// computed this run (Executed), and non-fatal Warnings (skipped or
// rejected checkpoint files, failed checkpoint writes).
type CampaignStats = campaign.RunStats

// campaignSpec resolves the effective spec the campaign layer runs,
// applying the Options-level trials fallback in one place so RunSweep,
// RunSweepCheckpointed and SweepFingerprint agree on the campaign identity
// (and therefore the content hash) given identical options.
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
// the base configuration. Checkpoint files bind to it: a resume loads only
// files written under the same fingerprint.
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
	camp, stats, err := campaign.Run(o.coreConfig(), spec, o.Workers, copt)
	if err != nil {
		return nil, stats, err
	}
	return &SweepResult{campaign: camp}, stats, nil
}

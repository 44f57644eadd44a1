// Package campaign turns the sweep engine into a cluster-scale,
// resumable campaign runner. A sweep cell is byte-reproducible from
// (campaign content hash, cell index) alone — sweep.CellSeed derives its
// seed, sweep.Plan.RunCells its bytes — which makes a cell a perfect unit
// of distributable, cacheable work. This package provides the three
// layers that exploit it:
//
//   - a checkpoint Store writing one content-addressed file per finished
//     cell (temp file + atomic rename), so a killed campaign — in-process
//     or distributed — resumes by computing only the missing subset;
//   - a Coordinator serving cells over a minimal HTTP lease protocol
//     (/lease, /result, /status), reissuing leases whose workers die and
//     deduplicating double results (first complete wins);
//   - a Worker loop leasing cells and executing them via the shared
//     sweep.Plan at the cell-local seed.
//
// Every path folds results into the same index-addressed campaign grid
// the in-process Run fills, so the exported CSV and figure bytes
// are identical however the cells were computed: locally, resumed from
// disk, or fanned out across worker processes. Stale state can never
// leak in: jobs, results and checkpoint files all carry the campaign's
// content hash (sweep.Plan.Hash covers the spec, the resolved
// seed/trials/protocol identity and the base configuration), and a
// mismatch rejects the work instead of merging it.
package campaign

import (
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sweep"
)

// Job is one leasable unit of campaign work: a single grid cell,
// identified by the campaign's content hash and the cell index, with the
// derivation facts (cell seed, protocol set, trial count) echoed so a
// worker can cross-check its own plan before burning CPU on the wrong
// campaign.
type Job struct {
	// SpecHash is the campaign content hash (sweep.Plan.Hash) the cell
	// belongs to; a worker must refuse jobs whose hash differs from its
	// locally resolved plan.
	SpecHash string `json:"spec_hash"`
	// Cell is the grid cell index to execute.
	Cell int `json:"cell"`
	// Seed is the cell's derived root seed (sweep.CellSeed of the campaign
	// seed and Cell) — redundant with SpecHash, kept as a cheap integrity
	// cross-check.
	Seed int64 `json:"seed"`
	// Protocols is the campaign protocol set in run order.
	Protocols []string `json:"protocols"`
	// Trials is the replication count per cell.
	Trials int `json:"trials"`
}

// LeaseReply is the coordinator's answer to a lease request. Exactly one
// of the three shapes is populated: Job (work to do), Wait (every
// remaining cell is leased — poll again after RetryMs), or Done (the
// campaign is complete — the worker should exit).
type LeaseReply struct {
	// Done reports that every cell is complete.
	Done bool `json:"done,omitempty"`
	// Wait reports that no cell is currently pending but the campaign is
	// not complete; the worker should retry after RetryMs.
	Wait bool `json:"wait,omitempty"`
	// RetryMs is the suggested poll delay when Wait is set.
	RetryMs int64 `json:"retry_ms,omitempty"`
	// Job is the leased cell, when one was available.
	Job *Job `json:"job,omitempty"`
	// LeaseMs is the lease deadline: a result arriving later than this
	// many milliseconds after the lease may find the cell reissued.
	LeaseMs int64 `json:"lease_ms,omitempty"`
}

// ResultPost is a worker's completed cell, posted to /result.
type ResultPost struct {
	// SpecHash is the worker's campaign content hash; the coordinator
	// rejects results computed under any other campaign.
	SpecHash string `json:"spec_hash"`
	// Worker identifies the reporting worker (diagnostics only).
	Worker string `json:"worker,omitempty"`
	// Cell is the fully aggregated cell result.
	Cell sweep.CellResult `json:"cell"`
	// Obs carries the worker's counter deltas for this cell — the change
	// in its observability registry across the cell's runs. Optional;
	// the coordinator absorbs the samples of the accepted result into
	// its own registry, so coordinator /metrics totals match what one
	// in-process sweep would have reported.
	Obs []obs.Sample `json:"obs,omitempty"`
}

// ResultReply is the coordinator's answer to a posted result.
type ResultReply struct {
	// OK reports the result was accepted and folded into the campaign.
	OK bool `json:"ok"`
	// Duplicate reports the cell was already complete (an earlier result
	// won); the post was discarded, which is harmless — all results for a
	// cell are byte-identical by the determinism contract.
	Duplicate bool `json:"duplicate,omitempty"`
	// Error carries the rejection reason when OK is false.
	Error string `json:"error,omitempty"`
}

// Status is the coordinator's /status document.
type Status struct {
	// SpecHash is the campaign content hash.
	SpecHash string `json:"spec_hash"`
	// Name is the campaign spec name.
	Name string `json:"name"`
	// Cells is the grid size; Done, Leased and Pending partition it.
	Cells   int `json:"cells"`
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Pending int `json:"pending"`
	// Resumed counts cells restored from the checkpoint store at startup.
	Resumed int `json:"resumed"`
	// Reissued counts leases that expired and were handed out again.
	Reissued int `json:"reissued"`
	// Duplicates counts results discarded because the cell was already
	// complete.
	Duplicates int `json:"duplicates"`
	// Complete reports whether every cell is done.
	Complete bool `json:"complete"`
	// UptimeSeconds is how long the coordinator has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers lists every worker that has contacted the coordinator,
	// sorted by ID.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker's row in the coordinator's /status
// document.
type WorkerStatus struct {
	// ID is the worker's self-assigned identity (hostname-pid).
	ID string `json:"id"`
	// LastSeenSecs is the age of the worker's last lease or result.
	LastSeenSecs float64 `json:"last_seen_secs"`
	// Cells counts results from this worker that were accepted.
	Cells int `json:"cells"`
	// Expired counts this worker's leases that timed out and were
	// reissued.
	Expired int `json:"expired"`
}

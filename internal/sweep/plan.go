package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/sim"
)

// Plan is a validated campaign lowered onto a base configuration and
// frozen: the expanded grid, the resolved seed/trial/protocol identity,
// and a content hash over all of it. A checkpoint store binds its files to
// the hash, so cells computed under a different campaign are rejected
// instead of silently merged.
type Plan struct {
	r    *resolved
	hash string
}

// NewPlan validates and resolves the spec against the base configuration
// and fingerprints the result. The same (base, spec) pair always produces
// the same hash; any change that could alter a single cell's bytes — an
// axis value, the seed, the trial count, a protocol, a base-configuration
// parameter — produces a different one.
func NewPlan(base core.Config, s *Spec) (*Plan, error) {
	r, err := resolve(base, s)
	if err != nil {
		return nil, err
	}
	h, err := fingerprint(r)
	if err != nil {
		return nil, err
	}
	return &Plan{r: r, hash: h}, nil
}

// fingerprint content-addresses the campaign: a SHA-256 over the canonical
// JSON of the spec, the resolved seed/trials/protocol set, and the base
// configuration as resolve cleared it (every field of which can move cell
// bytes). Struct fields marshal in declaration order and the config holds
// no maps, so the encoding — and therefore the hash — is deterministic.
func fingerprint(r *resolved) (string, error) {
	payload := struct {
		Spec      *Spec       `json:"spec"`
		Seed      int64       `json:"seed"`
		Trials    int         `json:"trials"`
		Protocols []string    `json:"protocols"`
		Base      core.Config `json:"base"`
	}{r.spec, r.seed, r.trials, r.names, r.base}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("sweep: fingerprinting campaign %q: %w", r.spec.Name, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Hash returns the campaign's content hash (64 hex characters).
func (p *Plan) Hash() string { return p.hash }

// Protocols returns the resolved protocol set in campaign order.
func (p *Plan) Protocols() []string {
	out := make([]string, len(p.r.names))
	copy(out, p.r.names)
	return out
}

// NumCells returns the grid size.
func (p *Plan) NumCells() int { return len(p.r.cells) }

// NewCampaign returns an empty campaign shell for this plan: identity
// fields filled, one CellResult per grid cell carrying its Cell identity
// with no protocol aggregates yet. Callers fill Cells[i] as results arrive
// (from RunCells or a checkpoint store) — the grid is index-addressed, so
// arrival order never changes the exported bytes.
func (p *Plan) NewCampaign() *Campaign {
	camp := &Campaign{
		Spec: p.r.spec, Seed: p.r.seed, Trials: p.r.trials, Protocols: p.Protocols(),
		Cells: make([]CellResult, len(p.r.cells)),
	}
	for i, c := range p.r.cells {
		camp.Cells[i] = CellResult{Cell: c}
	}
	return camp
}

// VerifyCell checks that a cell result (typically deserialized from a
// checkpoint file) carries this plan's identity for its index: matching
// seed and coordinates, the campaign's protocol set in order, and trial
// pools of the campaign's size. It reports the first
// mismatch — a corrupted or foreign result — so callers can discard the
// cell and recompute it instead of folding bad data into the campaign.
func (p *Plan) VerifyCell(cr *CellResult) error {
	if cr == nil {
		return fmt.Errorf("sweep %q: nil cell result", p.r.spec.Name)
	}
	if cr.Index < 0 || cr.Index >= len(p.r.cells) {
		return fmt.Errorf("sweep %q: cell index %d out of range [0, %d)", p.r.spec.Name, cr.Index, len(p.r.cells))
	}
	want := p.r.cells[cr.Index]
	if cr.Seed != want.Seed {
		return fmt.Errorf("sweep %q cell %d: seed %d, want %d", p.r.spec.Name, cr.Index, cr.Seed, want.Seed)
	}
	// Compared coordinate by coordinate, not by label: one forged
	// coordinate can spell a whole label, and the exporters index Coords by
	// axis.
	if len(cr.Coords) != len(want.Coords) {
		return fmt.Errorf("sweep %q cell %d: %d coordinates, want %d", p.r.spec.Name, cr.Index, len(cr.Coords), len(want.Coords))
	}
	for i, co := range cr.Coords {
		if co != want.Coords[i] {
			return fmt.Errorf("sweep %q cell %d: coordinates[%d] is %q, want %q", p.r.spec.Name, cr.Index, i, co, want.Coords[i])
		}
	}
	if len(cr.Protocols) != len(p.r.names) {
		return fmt.Errorf("sweep %q cell %d: %d protocol aggregates, want %d", p.r.spec.Name, cr.Index, len(cr.Protocols), len(p.r.names))
	}
	for i, pc := range cr.Protocols {
		if pc.Protocol != p.r.names[i] {
			return fmt.Errorf("sweep %q cell %d: protocol %d is %q, want %q", p.r.spec.Name, cr.Index, i, pc.Protocol, p.r.names[i])
		}
		if pc.Summary.SuccessRate.N != p.r.trials {
			return fmt.Errorf("sweep %q cell %d: %s pools %d trials, want %d", p.r.spec.Name, cr.Index, pc.Protocol, pc.Summary.SuccessRate.N, p.r.trials)
		}
	}
	return nil
}

// RunCells executes any selection of cell indexes — the whole grid
// included — through core.RunGrid, on a worker pool bounded by workers
// (<= 0 means one per CPU), and delivers each completed cell to sink in
// ascending subset order. The jobs of the whole subset share one pool, so
// a two-cell resume still saturates the machine. RunGrid hands over each
// (cell, protocol)'s trials in index order, so one cell is in progress at
// a time and every sunk CellResult is byte-identical to the cell's entry
// in a whole-grid run at any worker count.
func (p *Plan) RunCells(cells []int, workers int, sink func(*CellResult)) error {
	r := p.r
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		if c < 0 || c >= len(r.cells) {
			return fmt.Errorf("sweep %q: cell %d out of range [0, %d)", r.spec.Name, c, len(r.cells))
		}
		cfgs[i] = r.cellCfgs[c]
	}
	var cr *CellResult
	var exLat sim.Time
	core.RunGrid(cfgs, r.behaviors, r.trials, r.spec.Warmup, r.spec.Queries, workers, func(pos, proto int, runs []*core.RunResult) {
		if proto == 0 {
			cr = &CellResult{Cell: r.cells[cells[pos]], Protocols: make([]ProtocolCell, len(r.behaviors))}
		}
		// Exemplar fold: strictly slower wins, so ties keep the earliest
		// (protocol, trial).
		for t, run := range runs {
			if len(run.Traces) > 0 && (cr.Exemplar == nil || run.Traces[0].Latency > exLat) {
				cr.Exemplar = exemplarOf(run, r.names[proto], t)
				exLat = run.Traces[0].Latency
			}
		}
		cr.Protocols[proto] = ProtocolCell{
			Protocol: r.names[proto],
			Summary:  core.SummarizeTrials(runs),
			Phases:   core.AggregateRunPhases(runs),
		}
		if proto == len(r.behaviors)-1 {
			sink(cr)
		}
	})
	return nil
}

// RunCellAt executes one grid cell through the subset runner and returns
// its aggregate — the exact bytes a whole-grid run places at that index.
func (p *Plan) RunCellAt(cell, workers int) (*CellResult, error) {
	var out *CellResult
	if err := p.RunCells([]int{cell}, workers, func(cr *CellResult) { out = cr }); err != nil {
		return nil, err
	}
	return out, nil
}

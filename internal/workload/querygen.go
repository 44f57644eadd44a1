package workload

import (
	"math"
	"math/rand"
	"slices"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/sim"
)

// QueryEvent is one generated query: at time At, peer Requester submits
// query Q, extracted from the file it targets.
type QueryEvent struct {
	At        sim.Time
	Requester int
	Q         keywords.Query
}

// GenConfig parameterises query generation.
type GenConfig struct {
	// RatePerPeer is queries per second per peer; paper: 0.00083.
	RatePerPeer float64
	// ZipfS is the popularity exponent.
	ZipfS float64
}

// DefaultGen matches §5.1's arrival rate, with the Zipf exponent at 1.0 —
// the value the Gnutella popularity studies the paper cites ([11], [15])
// report for query popularity.
func DefaultGen() GenConfig { return GenConfig{RatePerPeer: 0.00083, ZipfS: 1.0} }

// Generator produces a reproducible stream of query events via independent
// Poisson processes per peer (superposed, equivalent to a single Poisson
// process of aggregate rate n*RatePerPeer with uniform peer attribution).
//
// The popularity ranking, Zipf exponent and arrival rate are mutable
// mid-stream (SetTargets, AddTargets, SetZipfS, SetRateFactor): scenario
// dynamics re-rank popularity for flash crowds and spike the query rate
// without touching the RNG, so the stream stays deterministic.
type Generator struct {
	cfg GenConfig
	cat *Catalog
	// targets is the queryable file set, Zipf rank order. Per §3.3 of the
	// paper, queries request files of PF — the set of popularly *shared*
	// files, each provided by at least one peer — so the experiment
	// harness restricts targets to initially placed files.
	targets []FileID
	zipf    *Zipf
	n       int
	r       *rand.Rand
	now     sim.Time
	// rateFactor scales the aggregate arrival rate (flash-crowd spikes);
	// 1 is the steady state and leaves arrival gaps bit-identical to a
	// factor-free generator.
	rateFactor float64
}

// NewGeneratorOver creates a generator whose queries target only the given
// files (nil means the whole catalogue). Targets should be in ascending id
// order: catalogue ids are popularity ranks, so the Zipf head lands on the
// most popular queryable files.
func NewGeneratorOver(n int, cfg GenConfig, cat *Catalog, targets []FileID, r *rand.Rand) *Generator {
	if cfg.RatePerPeer <= 0 {
		cfg.RatePerPeer = DefaultGen().RatePerPeer
	}
	if len(targets) == 0 {
		targets = make([]FileID, cat.Size())
		for i := range targets {
			targets[i] = FileID(i)
		}
	} else {
		targets = slices.Clone(targets)
	}
	return &Generator{
		cfg:        cfg,
		cat:        cat,
		targets:    targets,
		zipf:       NewZipf(len(targets), cfg.ZipfS, r),
		n:          n,
		r:          r,
		rateFactor: 1,
	}
}

// AggregateRate returns the total queries/second across all peers,
// including the current rate factor.
func (g *Generator) AggregateRate() float64 {
	return g.cfg.RatePerPeer * float64(g.n) * g.rateFactor
}

// SetRateFactor scales the aggregate arrival rate by f from the next
// event on (flash-crowd spikes and lulls). Non-positive factors are
// ignored; 1 restores the configured steady rate.
func (g *Generator) SetRateFactor(f float64) {
	if f > 0 {
		g.rateFactor = f
	}
}

// SetZipfS rebuilds the popularity sampler with exponent s over the
// current target ranking. Rebuilding consumes no randomness.
func (g *Generator) SetZipfS(s float64) {
	g.cfg.ZipfS = s
	g.zipf = NewZipf(len(g.targets), s, g.r)
}

// ZipfS returns the current popularity exponent.
func (g *Generator) ZipfS() float64 { return g.cfg.ZipfS }

// Targets returns a copy of the current target ranking (most popular
// first).
func (g *Generator) Targets() []FileID {
	return slices.Clone(g.targets)
}

// SetTargets replaces the target ranking — position is popularity rank, so
// reordering re-ranks popularity (flash crowds promote a hot set to the
// head) and the Zipf sampler is rebuilt over the new length.
func (g *Generator) SetTargets(ts []FileID) {
	g.targets = append(g.targets[:0], ts...)
	g.zipf = NewZipf(len(g.targets), g.cfg.ZipfS, g.r)
}

// AddTargets appends newly queryable files at the unpopular tail of the
// ranking (content injection makes them reachable by queries).
func (g *Generator) AddTargets(ts ...FileID) {
	g.targets = append(g.targets, ts...)
	g.zipf = NewZipf(len(g.targets), g.cfg.ZipfS, g.r)
}

// Next returns the next query event: an exponential inter-arrival at the
// aggregate rate, a uniformly random requester, a Zipf-ranked target file
// and a 1..K keyword query extracted from its filename.
func (g *Generator) Next() QueryEvent {
	lambda := g.AggregateRate()
	gap := g.r.ExpFloat64() / lambda // seconds
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		gap = 1 / lambda
	}
	g.now += sim.FromSeconds(gap)
	f := g.cat.File(g.targets[g.zipf.Draw(g.r)])
	return QueryEvent{
		At:        g.now,
		Requester: g.r.Intn(g.n),
		Q:         keywords.ExtractQuery(f, g.r),
	}
}

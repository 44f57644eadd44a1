// Package core assembles the substrates into runnable Locaware experiments:
// it builds the physical model, landmarks, overlay, nodes and workload from
// one seeded configuration, drives query submission through a protocol
// behaviour, and harvests the paper's metrics. The figure-regeneration
// harness and the public facade sit on top of this package.
package core

import (
	"fmt"
	"math"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
	"github.com/p2prepro/locaware/internal/workload"
)

// Config collects every parameter of a simulation run. The zero value is
// not usable; start from DefaultConfig (the paper's §5.1 setup) and adjust.
type Config struct {
	// Seed roots all random streams; identical Seeds give identical
	// topologies and workloads across protocol runs, which is what makes
	// the figure comparisons paired.
	Seed int64

	// NumPeers is the overlay size; paper: 1000.
	NumPeers int
	// AvgDegree is the overlay's average connectivity degree; paper: 3.
	AvgDegree float64
	// MaxDegree caps any peer's neighbour count.
	MaxDegree int

	// Landmarks is the number of landmark machines; paper: 4 (24 locIds).
	Landmarks int
	// Placement positions peers in the latency plane.
	Placement netmodel.PlacementConfig
	// Latency maps plane distance to RTT; paper: 10–500 ms.
	Latency netmodel.LatencyConfig

	// Catalog sizes the shared-file universe; paper: 3000 files × 3
	// keywords from a 9000-keyword pool.
	Catalog workload.CatalogConfig
	// FilesPerPeer is the initial share count; paper: 3.
	FilesPerPeer int
	// Gen drives query arrivals; paper: Zipf at 0.00083 q/s/peer.
	Gen workload.GenConfig

	// Protocol holds the message-plane parameters (TTL 7, M groups, cache
	// bounds, Bloom sizing).
	Protocol protocol.Config

	// Scenario, when non-nil, runs the simulation under a phased-dynamics
	// timeline (churn waves, flash crowds, content and link dynamics) and
	// segments the measured metrics per phase. RunMeasured resolves the
	// phase grid for its measured count; callers pass the spec as is.
	Scenario *scenario.Spec

	// Shards is read by nothing: every simulation runs on one event queue.
	// Declared because benchmark/trace.go:205 assigns it (and because the
	// campaign fingerprint marshals this struct, so the field keeps every
	// campaign hash where it was); ROADMAP item 1(b) removes it.
	Shards int

	// Obs, when non-nil, attaches the run-wide observability registry: the
	// run's event-loop and protocol counts are folded into it once, when the
	// run ends (the registry may be shared by the concurrent simulations of
	// a campaign), and RunResult.Runtime carries the per-run snapshot.
	// Instrumentation is provably inert — it never touches RNG streams or
	// event order, so output stays byte-identical. The json tag keeps
	// campaign fingerprints and checkpoint identity independent of whether
	// a run is instrumented.
	Obs *obs.Registry `json:"-"`

	// TracePolicy, when non-nil, attaches a tail-sampling
	// trace.FlightRecorder to the run: every query's events buffer only
	// until finalize, traces matching the policy (failed / deep / slowest-N)
	// are retained, and RunResult.Traces carries them. Like Obs, tracing is
	// inert — output is byte-identical to an untraced run — and the json
	// tag keeps campaign fingerprints and checkpoint identity independent
	// of whether a run is traced.
	TracePolicy *trace.Policy `json:"-"`
}

// DefaultConfig returns the paper's evaluation setup (§5.1).
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		NumPeers:     1000,
		AvgDegree:    3,
		MaxDegree:    12,
		Landmarks:    4,
		Placement:    netmodel.DefaultPlacement(),
		Latency:      netmodel.DefaultLatency(),
		Catalog:      workload.DefaultCatalog(),
		FilesPerPeer: 3,
		Gen:          workload.DefaultGen(),
		Protocol:     protocol.DefaultConfig(),
	}
}

// maxLandmarks is the largest landmark count k whose k! locIds fit in an
// int64: 20! ≈ 2.4e18, and 21! overflows.
const maxLandmarks = 20

// Param is one numeric world parameter: its name (as sweeps, flags and
// errors spell it), a one-line doc, whether it counts something, and how it
// reads from and writes onto a Config.
type Param struct {
	Name, Doc string
	Integer   bool
	Get       func(*Config) float64
	Set       func(*Config, float64)
}

// Params is the one table of numeric world parameters, in the order every
// surface lists them: the sweep's axes and base overrides, Validate, the
// facade's Options and the locaware command's flags all read it. The paper's values
// stay in DefaultConfig.
var Params = []Param{
	field("peers", "number of peers", func(c *Config) *int { return &c.NumPeers }),
	field("avg-degree", "average overlay degree", func(c *Config) *float64 { return &c.AvgDegree }),
	field("landmarks", "number of landmarks (k landmarks number k! locIds)", func(c *Config) *int { return &c.Landmarks }),
	field("files", "catalogue size in files", func(c *Config) *int { return &c.Catalog.NumFiles }),
	field("files-per-peer", "files each peer shares at start", func(c *Config) *int { return &c.FilesPerPeer }),
	field("keyword-pool", "keyword universe size", func(c *Config) *int { return &c.Catalog.KeywordPool }),
	{"query-rate", "queries/second/peer; the Bloom gossip period follows it", false,
		func(c *Config) float64 { return c.Gen.RatePerPeer }, (*Config).SetQueryRate},
	field("zipf-s", "Zipf popularity exponent", func(c *Config) *float64 { return &c.Gen.ZipfS }),
	field("ttl", "query TTL in hops", func(c *Config) *int { return &c.Protocol.TTL }),
	field("groups", "Dicas group count M", func(c *Config) *int { return &c.Protocol.GroupCount }),
	field("cache-filenames", "response-index capacity in filenames", func(c *Config) *int { return &c.Protocol.Cache.MaxFilenames }),
	field("cache-providers", "providers kept per cached filename", func(c *Config) *int { return &c.Protocol.Cache.MaxProvidersPerFile }),
	field("bloom-bits", "Bloom filter size in bits", func(c *Config) *int { return &c.Protocol.BloomBits }),
}

// field builds the row of a parameter that is one int or float64 field.
func field[T int | float64](name, doc string, at func(*Config) *T) Param {
	_, integer := any(T(0)).(int)
	return Param{name, doc, integer,
		func(c *Config) float64 { return float64(*at(c)) },
		func(c *Config, v float64) { *at(c) = T(v) }}
}

// Check rejects a value the parameter cannot run as given: non-positive
// (or NaN), or, for an integer parameter, fractional or too large for the
// int it lowers to.
func (p Param) Check(v float64) error {
	if !(v > 0) {
		return fmt.Errorf("value %g must be positive", v)
	}
	if p.Integer && v != math.Trunc(v) {
		return fmt.Errorf("value %g must be an integer", v)
	}
	if p.Integer && v > math.MaxInt32 {
		return fmt.Errorf("value %g exceeds %d", v, math.MaxInt32)
	}
	return nil
}

// Validate refuses a configuration no world can be built from as it
// reads: a parameter of Params that Check refuses, a catalogue that cannot
// exist, more landmarks than a locId can number, a degree whose link budget
// cannot connect the peers or that exceeds MaxDegree, a Bloom filter below
// the smallest one bloom.New builds, more files per peer than the catalogue
// holds, or a flight recorder that keeps nothing. Each error names the
// parameter, its value and the bound.
func (c Config) Validate() error {
	for _, p := range Params {
		if err := p.Check(p.Get(&c)); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	if c.Landmarks > maxLandmarks {
		return fmt.Errorf("landmarks %d: a locId numbers one of k! landmark orderings, and k! overflows past %d landmarks",
			c.Landmarks, maxLandmarks)
	}
	if links := overlay.LinkBudget(c.NumPeers, c.AvgDegree); links < c.NumPeers-1 {
		return fmt.Errorf("avg-degree %g budgets %d links for %d peers, below the %d links of the arrival tree that connects them",
			c.AvgDegree, links, c.NumPeers, c.NumPeers-1)
	}
	if c.MaxDegree > 0 && c.AvgDegree > float64(c.MaxDegree) {
		return fmt.Errorf("avg-degree %g exceeds MaxDegree %d", c.AvgDegree, c.MaxDegree)
	}
	if c.Protocol.BloomBits < bloom.MinBits {
		return fmt.Errorf("bloom-bits %d is below %d, the smallest filter bloom.New builds",
			c.Protocol.BloomBits, bloom.MinBits)
	}
	if c.FilesPerPeer > c.Catalog.NumFiles {
		return fmt.Errorf("files-per-peer %d exceeds files %d: a peer's initial files are distinct",
			c.FilesPerPeer, c.Catalog.NumFiles)
	}
	if p := c.TracePolicy; p != nil {
		names := []string{"SlowestN", "MinHops", "MaxEventsPerQuery"}
		for i, v := range []int{p.SlowestN, p.MinHops, p.MaxEventsPerQuery} {
			if v < 0 {
				return fmt.Errorf("TracePolicy.%s %d must be non-negative", names[i], v)
			}
		}
		if !p.KeepFailed && p.MinHops == 0 && p.SlowestN == 0 {
			return fmt.Errorf("TracePolicy keeps nothing; set SlowestN, KeepFailed or MinHops")
		}
	}
	return nil
}

// ValidateRun is the one gate a run passes: positive measured and
// non-negative warmup query counts, then Validate, then a scenario whose
// phases fit the measured queries and figure checkpoints that ascend
// strictly within [1, measured].
func (c Config) ValidateRun(warmup, measured int) error {
	if measured <= 0 {
		return fmt.Errorf("measured queries %d must be positive", measured)
	}
	if warmup < 0 {
		return fmt.Errorf("warmup queries %d must be non-negative", warmup)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Scenario != nil {
		if _, err := c.Scenario.Marks(measured); err != nil {
			return err
		}
	}
	prev := 0
	for _, cp := range c.Protocol.Collector.Checkpoints {
		if cp <= prev || cp > measured {
			return fmt.Errorf("checkpoint %d after %d: checkpoints must ascend strictly within [1, %d], the measured queries", cp, prev, measured)
		}
		prev = cp
	}
	return nil
}

// SetQueryRate sets the per-peer query rate and, with it, the Bloom gossip
// period: gossip piggybacks on ordinary data exchange (§4.2), so its cadence
// follows system activity. A rate accelerated above the paper's shrinks the
// period in proportion (never below 1 s), keeping "queries per gossip round"
// constant. Both values are absolute in the rate — derived from
// DefaultConfig's rate and period, not c's — so every way of naming a rate
// (Options.QueryRate, a sweep's query-rate base or axis) runs the same world.
func (c *Config) SetQueryRate(rate float64) {
	d := DefaultConfig()
	c.Gen.RatePerPeer = rate
	scale := min(d.Gen.RatePerPeer/rate, 1)
	c.Protocol.BloomGossipPeriod = max(sim.Time(float64(d.Protocol.BloomGossipPeriod)*scale), sim.Second)
}

// ResolveScenario threads cfg's scenario phase grid for a run of
// `measured` measured queries into the collector configuration, so the
// streaming collector seals a full-metric window per phase during the run;
// it is a no-op without a scenario. RunMeasured is its one caller in the
// simulator and resolves every run's grid; it stays exported because the
// benchmark harness (benchmark/campaign.go) calls it, and a config resolved
// ahead of RunMeasured is simply resolved again. It panics on an
// unresolvable grid (fewer measured queries than phases), which
// ValidateRun refuses before any run.
func ResolveScenario(cfg Config, measured int) Config {
	if cfg.Scenario == nil {
		return cfg
	}
	marks, err := cfg.Scenario.Marks(measured)
	if err != nil {
		panic(fmt.Sprintf("core: resolving scenario: %v", err))
	}
	cfg.Protocol.Collector.Phases = marks
	return cfg
}

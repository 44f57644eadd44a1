// Package core assembles the substrates into runnable Locaware experiments:
// it builds the physical model, landmarks, overlay, nodes and workload from
// one seeded configuration, drives query submission through a protocol
// behaviour, and harvests the paper's metrics. The figure-regeneration
// harness and the public facade sit on top of this package.
package core

import (
	"fmt"

	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/obs"
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

// Validate refuses a configuration no world can be built from: a catalogue
// that cannot exist, or more landmarks than a locId can number. Each error
// names the field and its value.
func (c Config) Validate() error {
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	if c.Landmarks > maxLandmarks {
		return fmt.Errorf("Landmarks %d: a locId numbers one of k! landmark orderings, and k! overflows past %d landmarks",
			c.Landmarks, maxLandmarks)
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
// unresolvable grid (fewer measured queries than phases) — the public
// facade and the sweep planner validate specs before running.
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

package main

import (
	"fmt"
	"math"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
)

// A workload is an ensemble of independent units: simulated worlds (one
// core.NewSimulation + RunMeasured each) or, for campaign-grid, whole sweep
// campaigns. Unit i runs under sim.TrialSeed(-seed, i), so one -seed names
// one fixed sequence of inputs. Averaging over an ensemble instead of
// repeating one world is what makes the numbers comparable between seeds:
// host cost per query differs by up to 2x from one 2000-peer flooding world
// to the next (see README "Why ensembles").
type workload struct {
	name string
	why  string

	// behavior, peers, warmup and measured define a single-run unit; the
	// rest of the configuration is core.DefaultConfig — the paper's §5.1
	// setup at its 0.00083 q/s/peer arrival rate, exactly what
	// locaware.DefaultOptions lowers to. campaign marks the sweep workload
	// instead (see campaign.go).
	behavior protocol.Behavior
	peers    int
	warmup   int
	measured int
	campaign bool

	// unitSeconds is one unit's wall time (set-up included) on the machine
	// the sizes were chosen on; -seconds ÷ unitSeconds units make a run.
	unitSeconds float64
	// traceUnits is how many leading units each traced variant re-runs.
	traceUnits int
}

// minUnits keeps quartiles meaningful when -seconds is small.
const minUnits = 5

var workloads = []*workload{
	{
		name:     "locaware-2k",
		why:      "canonical Locaware run at the paper's arrival rate: gossip, Bloom, cache and protocol receive/forward do the work, the event queue little",
		behavior: protocol.Locaware{}, peers: 2000, warmup: 2000, measured: 8000,
		unitSeconds: 1.15, traceUnits: 2,
	},
	{
		name:     "flood-2k",
		why:      "Flooding bursts of ~1400 messages on a sparse queue: scheduler, dispatch, RTT and duplicate suppression do all the work, Bloom/cache/gossip none",
		behavior: protocol.Flooding{}, peers: 2000, warmup: 0, measured: 25,
		unitSeconds: 0.125, traceUnits: 16,
	},
	{
		name:     "locaware-20k",
		why:      "Locaware at 20000 peers: dense standing queue and a working set far beyond the CPU caches, so peer-state layout, set-up time and peak RSS show here",
		behavior: protocol.Locaware{}, peers: 20000, warmup: 1000, measured: 4000,
		unitSeconds: 1.45, traceUnits: 2,
	},
	{
		name:        "campaign-grid",
		why:         "in-process sweep campaign of many short-lived churning worlds: world build/teardown, pool warm-up, streaming aggregation, export and scenario mutation paths dominate",
		campaign:    true,
		unitSeconds: 3.3, traceUnits: 1,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// units sizes the ensemble from the -seconds budget.
func (w *workload) units(seconds int) int {
	n := int(math.Round(float64(seconds) / w.unitSeconds))
	if n < minUnits {
		n = minUnits
	}
	return n
}

// unitSeed derives unit i's root seed; unit 0 keeps the -seed itself.
func unitSeed(seed int64, i int) int64 { return sim.TrialSeed(seed, i) }

// world is one simulation to build and run, in core terms.
type world struct {
	cfg      core.Config
	behavior protocol.Behavior
	warmup   int
	measured int
}

// world is a single-run unit: core.DefaultConfig at the workload's size.
func (w *workload) world(seed int64) world {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = w.peers
	return world{cfg: cfg, behavior: w.behavior, warmup: w.warmup, measured: w.measured}
}

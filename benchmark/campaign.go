package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	locaware "github.com/p2prepro/locaware"
	"github.com/p2prepro/locaware/internal/campaign"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/sweep"
)

// campaignSpec is the campaign-grid unit: overlay size crossed with
// steady-churn intensity, the four baseline protocols in every cell. It
// goes through ParseSweep like a user's JSON file would.
const campaignSpec = `{
  "name": "campaign-grid",
  "description": "benchmark grid: overlay size x steady-churn intensity, all baselines",
  "warmup": 60,
  "queries": 240,
  "trials": 2,
  "scenario": "steady-churn",
  "axes": [
    {"param": "peers", "values": [100, 200, 400]},
    {"param": "scenario-intensity", "values": [0, 1, 2]}
  ]
}`

// campaignRate is the accelerated arrival rate sweeps are run at (the
// examples and the sweep tests use 0.005-0.01); the facade scales the
// gossip period with it.
const campaignRate = 0.01

// planSamples is how many parse+plan timings one campaign unit takes; the
// unit's set-up time is their median. A plan takes about 0.1 ms, so it
// needs many samples to be steady.
const planSamples = 25

// The end-to-end campaign runs on one worker: on a shared 2-vCPU host a
// unit that keeps both cores busy is at the mercy of the hypervisor (20 %
// run-to-run spread that no calibration removes), and a gate needs a steady
// number. The parallel executor is measured by the traced run instead, on
// campaignWorkers workers (exper.parallel_efficiency, and the CSV must not
// depend on the worker count).
const campaignUnitWorkers = 1

func campaignWorkers() int { return min(runtime.NumCPU(), 4) }

func campaignOptions(seed int64, workers int) locaware.Options {
	o := locaware.DefaultOptions()
	o.Seed = seed
	o.QueryRate = campaignRate
	o.Workers = workers
	return o
}

// planCampaign is the campaign's set-up: parse the spec, root it at the
// unit seed, and resolve + fingerprint the plan.
func planCampaign(spec string, o locaware.Options) (*locaware.Sweep, error) {
	sw, err := locaware.ParseSweep([]byte(spec))
	if err != nil {
		return nil, err
	}
	sw = sw.WithSeed(o.Seed)
	if _, err := locaware.SweepFingerprint(o, sw); err != nil {
		return nil, err
	}
	return sw, nil
}

// campaignDigest covers everything a campaign exports.
func campaignDigest(res *locaware.SweepResult) string {
	sum := sha256.Sum256([]byte(res.CSV() + res.PhaseCSV()))
	return hex.EncodeToString(sum[:])
}

// runCampaignUnit plans and executes one whole campaign in-process: world
// builds, runs, streaming aggregation and CSV export are all inside the
// timed region, as they are for a locaware-exp -sweep user.
func runCampaignUnit(spec string, seed int64, workers int) (unit, error) {
	o := campaignOptions(seed, workers)
	var sw *locaware.Sweep
	plans := make([]float64, planSamples)
	runtime.GC()
	for i := range plans {
		t := time.Now()
		var err error
		if sw, err = planCampaign(spec, o); err != nil {
			return unit{}, fmt.Errorf("planning campaign: %w", err)
		}
		plans[i] = time.Since(t).Seconds()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := locaware.RunSweep(o, sw)
	var digest string
	if err == nil {
		digest = campaignDigest(res)
	}
	run := time.Since(t1)
	runtime.ReadMemStats(&m1)

	runs := sw.NumCells() * len(sw.Protocols()) * sw.Trials()
	u := unit{
		SetupS:    median(plans),
		RunS:      run.Seconds(),
		Queries:   runs * (sw.Warmup() + sw.Queries()),
		Cells:     sw.NumCells(),
		Mallocs:   m1.Mallocs - m0.Mallocs,
		Bytes:     m1.TotalAlloc - m0.TotalAlloc,
		Attempted: runs,
		Digest:    digest,

		HostSlowdown: 1,
	}
	if err != nil {
		// The facade reports a campaign's first failed run as one error;
		// without per-run detail the whole unit counts as failed.
		u.Failed = runs
		u.Digest = "error: " + err.Error()
	}
	return u, nil
}

// campaignCentreCell is the grid's middle cell (200 peers, intensity 1):
// the traced variants run its worlds directly.
const campaignCentreCell = 4

// campaignBase is campaignOptions in core.Config terms — what the facade
// lowers those Options to. sweepLayers checks the claim: a plan built on it
// must fingerprint like the facade's.
func campaignBase(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Gen.RatePerPeer = campaignRate
	// The facade keeps "queries per gossip round" constant when arrivals
	// are accelerated above the paper's rate.
	paperRate := locaware.DefaultOptions().QueryRate
	cfg.Protocol.BloomGossipPeriod = sim.Time(float64(cfg.Protocol.BloomGossipPeriod) * paperRate / campaignRate)
	return cfg
}

func parseCampaignSpec(js string, seed int64) (*sweep.Spec, error) {
	spec, err := sweep.ParseSpec([]byte(js))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// campaignCellWorlds lowers one grid cell to the worlds the sweep engine
// builds for it: every protocol, every trial, the cell's derived seeds.
func campaignCellWorlds(js string, seed int64, cell int) ([]world, error) {
	spec, err := parseCampaignSpec(js, seed)
	if err != nil {
		return nil, err
	}
	coords := spec.Cells(seed)[cell]
	cfg := campaignBase(seed)
	scen, ok := scenario.Lookup(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("campaign scenario %q is not built in", spec.Scenario)
	}
	for _, co := range coords.Coords {
		switch co.Param {
		case sweep.ParamPeers:
			cfg.NumPeers = int(co.Value)
		case sweep.ParamIntensity:
			scen = scen.ScaleIntensity(co.Value)
		default:
			return nil, fmt.Errorf("campaign axis %q has no lowering here", co.Param)
		}
	}
	cfg.Scenario = scen
	cfg = core.ResolveScenario(cfg, spec.Queries)
	var worlds []world
	for _, b := range core.Baselines() {
		for trial := 0; trial < spec.Trials; trial++ {
			wc := cfg
			wc.Seed = sim.TrialSeed(coords.Seed, trial)
			worlds = append(worlds, world{cfg: wc, behavior: b, warmup: spec.Warmup, measured: spec.Queries})
		}
	}
	return worlds, nil
}

// sweepLayers takes the workload through the sweep and checkpoint layers:
// the campaign as it is, or a single-run world as the one-cell campaign
// the facade would make of it. Cells run one at a time on one worker for
// their serial cost, then all together for the parallel wall.
func (w *workload) sweepLayers(v map[string]float64, seed int64, dir string) (problems []string, err error) {
	var base core.Config
	var spec *sweep.Spec
	workers := 1
	if w.campaign {
		base, workers = campaignBase(seed), campaignWorkers()
		if spec, err = parseCampaignSpec(campaignSpec, seed); err != nil {
			return nil, err
		}
	} else {
		base = w.world(seed).cfg
		spec = &sweep.Spec{
			Name: w.name, Protocols: []string{w.behavior.Name()},
			Warmup: w.warmup, Queries: w.measured, Trials: 1, Seed: seed,
			Axes: []sweep.Axis{{Param: sweep.ParamPeers, Values: []float64{float64(w.peers)}}},
		}
	}

	var plan *sweep.Plan
	plans := make([]float64, planSamples)
	runtime.GC()
	for i := range plans {
		t := time.Now()
		if plan, err = sweep.NewPlan(base, spec); err != nil {
			return nil, fmt.Errorf("planning %s as a campaign: %w", w.name, err)
		}
		plans[i] = time.Since(t).Seconds()
	}
	v["sweep.plan_s"] = median(plans)
	if w.campaign {
		o := campaignOptions(seed, workers)
		sw, err := planCampaign(campaignSpec, o)
		if err != nil {
			return nil, err
		}
		if facade, err := locaware.SweepFingerprint(o, sw); err != nil {
			return nil, err
		} else if facade != plan.Hash() {
			problems = append(problems, fmt.Sprintf("campaignBase is not what the facade lowers campaignOptions to: plan %s, facade %s", plan.Hash(), facade))
		}
	}

	camp := plan.NewCampaign()
	cellS := make([]float64, plan.NumCells())
	serial := 0.0
	for c := range cellS {
		runtime.GC()
		t := time.Now()
		cr, err := plan.RunCellAt(c, 1)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", c, err)
		}
		cellS[c] = time.Since(t).Seconds()
		serial += cellS[c]
		camp.Cells[c] = *cr
	}
	cells := summarize(cellS)
	v["sweep.cell_s.p50"], v["sweep.cell_s.max"] = cells.Median, cells.Max
	v["sweep.runs"] = float64(camp.Runs())
	v["sweep.queries_total"] = float64(camp.Runs() * (spec.Warmup + spec.Queries))

	var exports [planSamples]float64
	serialCSV := ""
	for i := range exports {
		t := time.Now()
		serialCSV = camp.CSV() + camp.PhaseCSV()
		exports[i] = time.Since(t).Seconds()
	}
	v["sweep.export_s"] = median(exports[:])

	all := make([]int, plan.NumCells())
	for i := range all {
		all[i] = i
	}
	parallel := plan.NewCampaign()
	runtime.GC()
	t := time.Now()
	if err := plan.RunCells(all, workers, func(cr *sweep.CellResult) { parallel.Cells[cr.Index] = *cr }); err != nil {
		return nil, err
	}
	wall := time.Since(t).Seconds()
	v["exper.parallel_efficiency"] = serial / (float64(min(workers, camp.Runs())) * wall)
	if got := parallel.CSV() + parallel.PhaseCSV(); got != serialCSV {
		problems = append(problems, fmt.Sprintf("campaign CSV differs between one worker and %d", workers))
	}

	store, err := campaign.OpenStore(dir, plan.Hash())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	for c := range camp.Cells {
		if err := store.Put(&camp.Cells[c]); err != nil {
			return nil, err
		}
	}
	v["campaign.checkpoint_write_s"] = time.Since(t).Seconds()
	t = time.Now()
	resumed, stats, err := campaign.Run(base, spec, workers, campaign.Options{Checkpoint: dir, Resume: true})
	if err != nil {
		return nil, fmt.Errorf("resuming from checkpoints: %w", err)
	}
	v["campaign.resume_cells_per_s"] = float64(plan.NumCells()) / time.Since(t).Seconds()
	if stats.Resumed != plan.NumCells() || resumed.CSV()+resumed.PhaseCSV() != serialCSV {
		problems = append(problems, fmt.Sprintf("resume restored %d of %d cells or changed the CSV", stats.Resumed, plan.NumCells()))
	}
	return problems, nil
}

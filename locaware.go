// Package locaware is a simulation library reproducing "Locaware: Index
// Caching in Unstructured P2P-file Sharing Systems" (El Dick & Pacitti,
// DAMAP/EDBT 2009).
//
// Locaware reduces P2P bandwidth waste in Gnutella-like file-sharing
// overlays by caching query-response indexes with physical-location tags
// (landmark-derived locIds), exploiting natural file replication (every
// requester becomes a provider), and routing keyword queries with gossiped
// Bloom filters. This package exposes the full evaluation apparatus: a
// discrete-event simulator, a BRITE-style latency model with landmarks, an
// unstructured overlay with churn, the workload of §5.1, and the four
// compared protocols (Flooding, Dicas, Dicas-Keys, Locaware).
//
// Quick start:
//
//	opts := locaware.DefaultOptions()
//	opts.Peers = 500
//	res, err := locaware.Run(opts, locaware.ProtocolLocaware, 500, 1000)
//	if err != nil { ... }
//	fmt.Println(res.SuccessRate, res.AvgMessagesPerQuery, res.AvgDownloadRTTMs)
//
// Replicated experiments fan independent trials out across the CPUs, each
// in its own deterministically seeded world, and report mean ± 95% CI for
// every metric — same seed, same results, at any worker count:
//
//	opts.Trials, opts.Workers = 8, 0 // Workers 0 = one per CPU
//	agg, err := locaware.RunTrials(opts, locaware.ProtocolLocaware, 500, 1000)
//	if err != nil { ... }
//	fmt.Println(agg.SuccessRate) // e.g. "0.431±0.012"
//
// To regenerate a paper figure, use Compare and FigureTable: one trial
// renders bare numbers, Options.Trials > 1 adds error bars. Dynamics
// (churn, flash crowds, …) are Options.Scenario on any entry point, and a
// parameter grid is a Sweep handed to RunSweep; see cmd/locaware for the
// complete harness.
package locaware

import (
	"errors"
	"flag"
	"fmt"
	"slices"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/stats"
	"github.com/p2prepro/locaware/internal/trace"
)

// Protocol selects a search/caching protocol.
type Protocol string

// The four available protocols: the paper's §5 comparison.
const (
	ProtocolFlooding  Protocol = "Flooding"
	ProtocolDicas     Protocol = "Dicas"
	ProtocolDicasKeys Protocol = "Dicas-Keys"
	ProtocolLocaware  Protocol = "Locaware"
)

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []Protocol {
	bs := protocol.Baselines()
	out := make([]Protocol, len(bs))
	for i, b := range bs {
		out[i] = Protocol(b.Name())
	}
	return out
}

// ErrUnknownProtocol reports an unrecognised Protocol value.
var ErrUnknownProtocol = errors.New("locaware: unknown protocol")

func (p Protocol) behavior() (protocol.Behavior, error) {
	b, ok := protocol.ByName(string(p))
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProtocol, string(p))
	}
	return b, nil
}

// Options configures a simulation. Zero fields fall back to the paper's §5.1
// values (see DefaultOptions); a negative count, rate or bound is an error.
type Options struct {
	// Seed roots every random stream; equal seeds give identical worlds
	// and workloads across protocols.
	Seed int64
	// Peers is the overlay size (paper: 1000).
	Peers int
	// AvgDegree is the overlay's average connectivity degree (paper: 3).
	AvgDegree float64
	// Landmarks is the landmark count; k landmarks yield k! locIds
	// (paper: 4 → 24).
	Landmarks int
	// Files is the catalogue size (paper: 3000); FilesPerPeer the initial
	// share count (paper: 3); KeywordPool the keyword universe (paper:
	// 9000).
	Files        int
	FilesPerPeer int
	KeywordPool  int
	// QueryRate is queries/second/peer (paper: 0.00083); ZipfS the
	// popularity exponent.
	QueryRate float64
	ZipfS     float64
	// TTL bounds query propagation (paper: 7); Groups is the Dicas group
	// count M.
	TTL    int
	Groups int
	// CacheFilenames bounds each response index (paper: 50);
	// CacheProviders bounds providers per cached filename.
	CacheFilenames int
	CacheProviders int
	// BloomBits sizes the keyword Bloom filter (paper: 1200).
	BloomBits int
	// Scenario, when non-nil, runs the simulation under a phased-dynamics
	// timeline — churn waves, flash crowds, content injection/removal,
	// regional degradation — and reports every metric per phase
	// (Result.Phases). Scenarios apply to every entry point: Run, RunTrials
	// and Compare all honour it. Whole-run peer leave/rejoin
	// churn is the built-in "steady-churn" scenario.
	Scenario *Scenario
	// RetainRecords keeps every per-query record in memory and exposes them
	// as Result.Records — the full-fidelity trace mode of
	// `locaware trace -records`. Off (the default), the measurement plane is a
	// streaming accumulator whose state is O(checkpoints), so memory no
	// longer grows with the query count; all aggregate metrics and figure
	// tables are bit-identical either way.
	RetainRecords bool
	// Observer, when non-nil, attaches run-wide observability: every
	// simulation executed under these Options accumulates event-loop and
	// protocol telemetry into the Observer's registry, and Result.Runtime
	// carries the per-run snapshot. Instrumentation is inert — results
	// are byte-identical with or without it. See NewObserver.
	Observer *Observer
	// FlightRecorder, when non-nil, attaches tail-sampling causal query
	// tracing: queries matching the retention policy (slowest-N, failed,
	// deep) are kept as span trees on Result.Traces, renderable as text
	// timelines (Trace.Render) or exportable to Perfetto
	// (Result.WritePerfetto). Recording is inert — results are
	// byte-identical with or without it. A policy with no retention
	// criterion is an error. See FlightRecorder.
	FlightRecorder *FlightRecorder
	// Trials is the number of independent replications RunTrials and
	// Compare execute per protocol (<= 0 means 1). Trial t runs in its own
	// simulated world rooted at a seed derived deterministically from
	// (Seed, t); trial 0 reproduces the single-run Run output exactly.
	Trials int
	// Workers bounds how many simulations run concurrently in RunTrials,
	// Compare and the sweep runners (<= 0 means runtime.NumCPU()). Worker
	// count never changes results, only wall-clock time.
	Workers int
}

// numeric pairs each numeric Options field with its core.Params row:
// field i is row i's value, an *int or a *float64.
func (o *Options) numeric() []any {
	return []any{&o.Peers, &o.AvgDegree, &o.Landmarks, &o.Files, &o.FilesPerPeer, &o.KeywordPool,
		&o.QueryRate, &o.ZipfS, &o.TTL, &o.Groups, &o.CacheFilenames, &o.CacheProviders, &o.BloomBits}
}

// DefaultOptions returns the paper's evaluation setup: the values of the
// internal default configuration, which is where they are stated.
func DefaultOptions() Options {
	d := core.DefaultConfig()
	o := Options{Seed: d.Seed}
	for i, f := range o.numeric() {
		if p, ok := f.(*int); ok {
			*p = int(core.Params[i].Get(&d))
		} else {
			*f.(*float64) = core.Params[i].Get(&d)
		}
	}
	return o
}

// BindFlags defines one flag per numeric world parameter on fs, named as
// sweeps name it, documented by its core.Params row and defaulting to o's
// value; parsing writes the given values into o.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	for i, f := range o.numeric() {
		p := core.Params[i]
		switch f := f.(type) {
		case *int:
			fs.IntVar(f, p.Name, *f, p.Doc)
		case *float64:
			fs.Float64Var(f, p.Name, *f, p.Doc)
		}
	}
}

// coreConfig lowers Options to the internal configuration. This is the one
// place zero means default; core.Config itself has no such layer. Any other
// value is written through its core.Params row for core.Config.Validate to
// judge.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	for i, f := range o.numeric() {
		var v float64
		if p, ok := f.(*int); ok {
			v = float64(*p)
		} else {
			v = *f.(*float64)
		}
		if v != 0 {
			core.Params[i].Set(&cfg, v)
		}
	}
	if o.Scenario != nil {
		cfg.Scenario = o.Scenario.spec
	}
	cfg.Protocol.Collector.RetainRecords = o.RetainRecords
	if o.Observer != nil {
		cfg.Obs = o.Observer.reg
	}
	cfg.TracePolicy = o.FlightRecorder
	return cfg
}

// Result summarises one protocol run.
type Result struct {
	// Protocol is the protocol that produced the result.
	Protocol Protocol
	// Queries is the number of measured queries.
	Queries int
	// SuccessRate is satisfied/submitted (Fig. 4's metric).
	SuccessRate float64
	// AvgMessagesPerQuery is the mean search traffic (Fig. 3's metric).
	AvgMessagesPerQuery float64
	// AvgDownloadRTTMs is the mean requester→provider RTT over successful
	// queries in milliseconds (Fig. 2's metric).
	AvgDownloadRTTMs float64
	// SameLocalityRate is the fraction of downloads served from the
	// requester's own locality.
	SameLocalityRate float64
	// CacheHitRate is the fraction of successes answered from a response
	// index rather than shared storage.
	CacheHitRate float64
	// AvgHops is the mean overlay distance to the first hit.
	AvgHops float64
	// BloomForwards, GidForwards and FallbackForwards count how many
	// forwarding decisions each routing tier made; FloodForwards counts
	// blind forwards (Flooding only).
	BloomForwards    uint64
	GidForwards      uint64
	FallbackForwards uint64
	FloodForwards    uint64
	// ControlMessages and ControlKbits account Bloom-filter gossip
	// (Locaware only), kept separate from search traffic as in the paper.
	ControlMessages uint64
	ControlKbits    float64
	// CachedFilenames and CachedProviderEntries snapshot aggregate
	// response-index occupancy at the end of the run.
	CachedFilenames       int
	CachedProviderEntries int
	// SimulatedSeconds is the virtual duration of the run.
	SimulatedSeconds float64
	// Events is the number of simulator events processed.
	Events uint64
	// Records holds every measured query's outcome in submission order —
	// populated only when Options.RetainRecords is set (memory grows with
	// the query count).
	Records []QueryRecord
	// Phases holds the per-phase metric windows, in timeline order —
	// populated only when the run executed under Options.Scenario.
	Phases []PhaseMetrics
	// Runtime is the run's observability snapshot — populated only when
	// the run executed under an Observer (Options.Observer).
	Runtime *RuntimeStats
	// Traces holds the flight recorder's retained query traces, slowest
	// first — populated only when the run executed under a recorder
	// (Options.FlightRecorder). Export them with WritePerfetto.
	Traces []*Trace
	// TracePhases holds the scenario phase entries the flight recorder saw,
	// in timeline order — populated only when a recorded run executed under
	// Options.Scenario. WritePerfetto exports them as global instants.
	TracePhases []TraceEvent
}

// QueryRecord is one measured query's outcome (RetainRecords mode): ID, its
// 1-based measured sequence number; Messages; Success; DownloadRTT, the
// requester→provider RTT in ms (successes only); SameLocality; FromCache, a
// response-index hit; Hops, the overlay hops to the first hit.
type QueryRecord = metrics.QueryRecord

func newResult(p Protocol, r *core.RunResult) *Result {
	run := r.Collector.RunWindow()
	return &Result{
		Protocol:              p,
		Queries:               run.Queries,
		SuccessRate:           run.SuccessRate,
		AvgMessagesPerQuery:   run.AvgMessagesPerQuery,
		AvgDownloadRTTMs:      run.AvgDownloadRTTMs,
		SameLocalityRate:      run.SameLocalityRate,
		CacheHitRate:          run.CacheHitRate,
		AvgHops:               run.AvgHops,
		BloomForwards:         r.Forwarding.BloomMatched,
		GidForwards:           r.Forwarding.GidMatched,
		FallbackForwards:      r.Forwarding.Fallback,
		FloodForwards:         r.Forwarding.FloodAll,
		ControlMessages:       r.ControlMessages,
		ControlKbits:          float64(r.ControlBits) / 1000,
		CachedFilenames:       r.CacheFilenames,
		CachedProviderEntries: r.CacheProviderEntries,
		SimulatedSeconds:      r.Duration.Seconds(),
		Events:                r.Events,
		Records:               r.Collector.Records(),
		Phases:                r.Collector.PhaseWindows(),
		Runtime:               r.Runtime,
		Traces:                r.Traces,
		TracePhases:           r.TracePhases,
	}
}

// behaviorsOf lowers a protocol list (nil means Baselines) to behaviours.
// A protocol named twice is an error: its results would share one cell.
func behaviorsOf(protocols []Protocol) ([]Protocol, []protocol.Behavior, error) {
	if len(protocols) == 0 {
		protocols = Baselines()
	}
	behaviors := make([]protocol.Behavior, 0, len(protocols))
	for i, p := range protocols {
		if slices.Contains(protocols[:i], p) {
			return nil, nil, fmt.Errorf("locaware: protocol %q is listed twice", string(p))
		}
		b, err := p.behavior()
		if err != nil {
			return nil, nil, err
		}
		behaviors = append(behaviors, b)
	}
	return protocols, behaviors, nil
}

// Run simulates one protocol: warmup queries bring the system to operating
// temperature (records discarded), then queries are measured.
func Run(o Options, p Protocol, warmup, queries int) (*Result, error) {
	b, err := p.behavior()
	if err != nil {
		return nil, err
	}
	cfg := o.coreConfig()
	if err := cfg.ValidateRun(warmup, queries); err != nil {
		return nil, fmt.Errorf("locaware: %w", err)
	}
	s := core.NewSimulation(cfg, b)
	return newResult(p, s.RunMeasured(warmup, queries)), nil
}

// TraceEvent is one traced action (Trace.Events, Result.TracePhases): At,
// its virtual time (a sim.Time; At.Seconds() in seconds); Kind, whose
// Kind.String() names it (submit, forward, duplicate, storage-hit,
// cache-hit, response-hop, cached, download, failed, phase); Query (0 for a
// phase); Span and Parent, its place in the query's tree; Peer, and From,
// the counterpart of a link-crossing action (-1 otherwise; both -1 for a
// phase); Detail. String renders it as a log line.
type TraceEvent = trace.Event

// Figure identifies one of the paper's evaluation figures.
type Figure string

// The paper's three figures.
const (
	FigureDownloadDistance Figure = "fig2-download-distance"
	FigureSearchTraffic    Figure = "fig3-search-traffic"
	FigureSuccessRate      Figure = "fig4-success-rate"
)

// Estimate is a cross-trial sample statistic of one metric, in the
// metric's unit: N, the number of trials it pools; Mean, StdDev, Min and
// Max, the sample mean, standard deviation and range; CI95(), the 95%
// normal-approximation confidence half-width of the mean (0 for a single
// trial). String renders it as "mean±ci95", or the bare mean when N < 2.
type Estimate = stats.Summary

// TrialsResult summarises one protocol replicated over independent trials.
type TrialsResult struct {
	// Protocol is the protocol that produced the result.
	Protocol Protocol
	// Trials holds the per-trial summaries in trial order; Trials[0] is
	// bit-for-bit the result Run would return for the same Options.
	Trials []*Result
	// The headline metrics aggregated across trials.
	SuccessRate         Estimate
	AvgMessagesPerQuery Estimate
	AvgDownloadRTTMs    Estimate
	SameLocalityRate    Estimate
	CacheHitRate        Estimate
	AvgHops             Estimate
	ControlMessages     Estimate
	ControlKbits        Estimate
	CachedFilenames     Estimate
	// Phases aggregates the scenario phase windows across trials,
	// phase-aligned, so per-phase metrics carry cross-trial error bars like
	// the headline metrics. Nil unless the runs executed under a scenario;
	// render with the PhaseTable method.
	Phases []PhaseEstimates
}

func newTrialsResult(p Protocol, cell *core.TrialCell) *TrialsResult {
	sum := cell.Summary
	tr := &TrialsResult{
		Protocol:            p,
		SuccessRate:         sum.SuccessRate,
		AvgMessagesPerQuery: sum.AvgMessagesPerQuery,
		AvgDownloadRTTMs:    sum.AvgDownloadRTTMs,
		SameLocalityRate:    sum.SameLocalityRate,
		CacheHitRate:        sum.CacheHitRate,
		AvgHops:             sum.AvgHops,
		ControlMessages:     sum.ControlMessages,
		ControlKbits:        sum.ControlKbits,
		CachedFilenames:     sum.CachedFilenames,
		Phases:              cell.PhaseStats,
	}
	for _, r := range cell.Runs {
		tr.Trials = append(tr.Trials, newResult(p, r))
	}
	return tr
}

// RunTrials replicates Run over Options.Trials independent simulated worlds
// on a worker pool bounded by Options.Workers, aggregating the headline
// metrics into mean ± stddev ± 95% CI estimates: the one-protocol Compare.
func RunTrials(o Options, p Protocol, warmup, queries int) (*TrialsResult, error) {
	cmp, err := Compare(o, []Protocol{p}, warmup, queries, nil)
	if err != nil {
		return nil, err
	}
	return cmp.Sets[0], nil
}

// Comparison is a paired multi-protocol experiment over Options.Trials
// replicated worlds: trial t of every protocol shares one world, so each
// trial is a paired comparison. With one trial the figures are that run's
// own values; with more they carry cross-trial error bars.
type Comparison struct {
	// Sets holds per-protocol replicated summaries in run order;
	// Sets[i].Trials[0] is the single-run Result of protocol i.
	Sets []*TrialsResult
	cmp  *core.TrialComparison
}

// Compare runs each protocol (nil means Baselines) over an identical
// sequence of Options.Trials worlds and workloads, across at most
// Options.Workers concurrent simulations (<= 0 means one per CPU). Equal
// Options always yield identical results regardless of worker count.
// Checkpoints are the cumulative query counts the figures plot, strictly
// ascending within [1, queries]; nil means ten equal steps.
func Compare(o Options, protocols []Protocol, warmup, queries int, checkpoints []int) (*Comparison, error) {
	protocols, behaviors, err := behaviorsOf(protocols)
	if err != nil {
		return nil, err
	}
	cfg := o.coreConfig()
	cfg.Protocol.Collector.Checkpoints = checkpoints
	if err := cfg.ValidateRun(warmup, queries); err != nil {
		return nil, fmt.Errorf("locaware: %w", err)
	}
	tc := core.RunTrialComparison(cfg, behaviors, o.Trials, warmup, queries, o.Workers)
	out := &Comparison{cmp: tc}
	for i, name := range tc.Order {
		out.Sets = append(out.Sets, newTrialsResult(protocols[i], tc.Cells[name]))
	}
	return out, nil
}

// Set returns the replicated summary for protocol p, or nil if p was not
// compared.
func (c *Comparison) Set(p Protocol) *TrialsResult {
	for _, s := range c.Sets {
		if s.Protocol == p {
			return s
		}
	}
	return nil
}

// FigureTable renders the figure as an aligned text table, one row per
// checkpoint and one column per protocol — the same rows the paper's plots
// show; replicated cells read mean±ci95.
func (c *Comparison) FigureTable(f Figure) string {
	return stats.Table("queries", c.cmp.FigureSeries(string(f)))
}

// FigureCSV renders the figure as CSV for external plotting, with a
// <protocol>_ci95 column per protocol when more than one trial ran.
func (c *Comparison) FigureCSV(f Figure) string {
	return stats.CSV("queries", c.cmp.FigureSeries(string(f)))
}

// Headlines reports the paper's three headline claims measured on this
// comparison: download-distance reduction (paper ≈ −14%), search-traffic
// reduction versus flooding (paper ≈ −98%), and success-rate gains versus
// Dicas/Dicas-Keys (paper ≈ +23% / +33%).
type Headlines = core.Headline

// Headlines computes the headline claims from trial-mean metrics.
func (c *Comparison) Headlines() Headlines { return c.cmp.Headlines() }

// LocalityReport describes how a landmark set partitions the peer
// population into physical localities — the §5.1 analysis behind the
// paper's choice of 4 landmarks.
type LocalityReport struct {
	// Landmarks is the landmark count k; PossibleLocIDs is k!.
	Landmarks      int
	PossibleLocIDs int
	// OccupiedLocIDs is how many locIds at least one peer maps to.
	OccupiedLocIDs int
	// MeanPeersPerLocality is peers / occupied locIds (the paper reports
	// ≈8 for 5 landmarks over 1000 peers, too thin to find same-locality
	// providers).
	MeanPeersPerLocality float64
	// LargestLocality is the population of the most crowded locId.
	LargestLocality int
}

// Localities builds the physical world of opts (without running any
// queries) and reports its locality structure.
func Localities(o Options) (LocalityReport, error) {
	cfg := o.coreConfig()
	if err := cfg.Validate(); err != nil {
		return LocalityReport{}, fmt.Errorf("locaware: %w", err)
	}
	s := core.NewSimulation(cfg, protocol.Flooding{})
	census := s.Locator.Census()
	rep := LocalityReport{
		Landmarks:            cfg.Landmarks,
		PossibleLocIDs:       netmodel.NumLocIDs(cfg.Landmarks),
		OccupiedLocIDs:       len(census),
		MeanPeersPerLocality: s.Locator.MeanPeersPerOccupiedLocID(),
	}
	for _, n := range census {
		if n > rep.LargestLocality {
			rep.LargestLocality = n
		}
	}
	return rep, nil
}

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
// compared protocols (Flooding, Dicas, Dicas-Keys, Locaware) plus the
// location-aware-routing extension sketched in the paper's conclusion.
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
// parameter grid is a Sweep handed to RunSweep; see cmd/locaware-exp for
// the complete harness.
package locaware

import (
	"errors"
	"fmt"
	"slices"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/stats"
	"github.com/p2prepro/locaware/internal/trace"
)

// Protocol selects a search/caching protocol.
type Protocol string

// The five available protocols. The first four are the paper's §5
// comparison; ProtocolLocawareLR adds the location-aware routing extension
// proposed in §6.
const (
	ProtocolFlooding   Protocol = "Flooding"
	ProtocolDicas      Protocol = "Dicas"
	ProtocolDicasKeys  Protocol = "Dicas-Keys"
	ProtocolLocaware   Protocol = "Locaware"
	ProtocolLocawareLR Protocol = "Locaware-LR"
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

// Options configures a simulation. Zero fields fall back to the paper's
// §5.1 values (see DefaultOptions).
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
	// as Result.Records — the full-fidelity trace mode used by
	// cmd/locaware-trace. Off (the default), the measurement plane is a
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

// DefaultOptions returns the paper's evaluation setup: the values of the
// internal default configuration, which is where they are stated.
func DefaultOptions() Options {
	d := core.DefaultConfig()
	return Options{
		Seed:           d.Seed,
		Peers:          d.NumPeers,
		AvgDegree:      d.AvgDegree,
		Landmarks:      d.Landmarks,
		Files:          d.Catalog.NumFiles,
		FilesPerPeer:   d.FilesPerPeer,
		KeywordPool:    d.Catalog.KeywordPool,
		QueryRate:      d.Gen.RatePerPeer,
		ZipfS:          d.Gen.ZipfS,
		TTL:            d.Protocol.TTL,
		Groups:         d.Protocol.GroupCount,
		CacheFilenames: d.Protocol.Cache.MaxFilenames,
		CacheProviders: d.Protocol.Cache.MaxProvidersPerFile,
		BloomBits:      d.Protocol.BloomBits,
	}
}

// setPositive overrides a default with an option that was set: zero (or
// negative) Options fields mean the paper's value.
func setPositive[T int | float64](dst *T, v T) {
	if v > 0 {
		*dst = v
	}
}

// coreConfig lowers Options to the internal configuration. This is the one
// place zero means default; core.Config itself has no such layer.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	setPositive(&cfg.NumPeers, o.Peers)
	setPositive(&cfg.AvgDegree, o.AvgDegree)
	setPositive(&cfg.Landmarks, o.Landmarks)
	setPositive(&cfg.Catalog.NumFiles, o.Files)
	setPositive(&cfg.Catalog.KeywordPool, o.KeywordPool)
	setPositive(&cfg.FilesPerPeer, o.FilesPerPeer)
	setPositive(&cfg.Gen.ZipfS, o.ZipfS)
	setPositive(&cfg.Protocol.TTL, o.TTL)
	setPositive(&cfg.Protocol.GroupCount, o.Groups)
	setPositive(&cfg.Protocol.Cache.MaxFilenames, o.CacheFilenames)
	setPositive(&cfg.Protocol.Cache.MaxProvidersPerFile, o.CacheProviders)
	setPositive(&cfg.Protocol.BloomBits, o.BloomBits)
	if o.QueryRate > 0 {
		cfg.SetQueryRate(o.QueryRate) // the gossip cadence follows the rate
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

// QueryRecord is the outcome of one measured query (RetainRecords mode).
type QueryRecord struct {
	// ID is the query's 1-based submission sequence number.
	ID uint64
	// Messages is the overlay message count the query produced.
	Messages int
	// Success reports whether the query was satisfied.
	Success bool
	// DownloadRTTMs is the requester→provider RTT in ms (successes only).
	DownloadRTTMs float64
	// SameLocality reports a download served from the requester's locality.
	SameLocality bool
	// FromCache reports a hit answered from a response index.
	FromCache bool
	// Hops is the overlay hop count to the first hit.
	Hops int
}

func newResult(p Protocol, r *core.RunResult) *Result {
	var records []QueryRecord
	if recs := r.Collector.Records(); recs != nil {
		records = make([]QueryRecord, len(recs))
		for i, rec := range recs {
			records[i] = QueryRecord{
				ID:            rec.ID,
				Messages:      rec.Messages,
				Success:       rec.Success,
				DownloadRTTMs: rec.DownloadRTT,
				SameLocality:  rec.SameLocality,
				FromCache:     rec.FromCache,
				Hops:          rec.Hops,
			}
		}
	}
	var phases []PhaseMetrics
	for _, w := range r.Collector.PhaseWindows() {
		phases = append(phases, liftPhaseWindow(w))
	}
	run := liftPhaseWindow(r.Collector.RunWindow())
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
		Records:               records,
		Phases:                phases,
		Runtime:               r.Runtime,
		Traces:                liftTraces(r),
		TracePhases:           liftEvents(r.TracePhases),
	}
}

// validateRun checks what every run entry point requires before a world is
// built: the warmup/queries bounds, a catalogue that can exist, a flight
// recorder that keeps something, and a scenario that resolves onto `queries`
// measured queries — so entry points fail with an error instead of hanging
// or panicking deep in core.
func validateRun(o Options, warmup, queries int) error {
	if queries <= 0 {
		return errors.New("locaware: queries must be positive")
	}
	if warmup < 0 {
		return errors.New("locaware: warmup must be non-negative")
	}
	if err := o.coreConfig().Validate(); err != nil {
		return fmt.Errorf("locaware: %w", err)
	}
	if err := checkRecorder(o.FlightRecorder); err != nil {
		return err
	}
	if o.Scenario != nil {
		_, err := o.Scenario.spec.Marks(queries)
		return err
	}
	return nil
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

// checkRecorder refuses a flight-recorder policy with no retention
// criterion: it would buffer every query and return no trace.
func checkRecorder(fr *FlightRecorder) error {
	if fr != nil && !fr.KeepFailed && fr.MinHops <= 0 && fr.SlowestN <= 0 {
		return errors.New("locaware: Options.FlightRecorder keeps nothing; set SlowestN, KeepFailed or MinHops")
	}
	return nil
}

// Run simulates one protocol: warmup queries bring the system to operating
// temperature (records discarded), then queries are measured.
func Run(o Options, p Protocol, warmup, queries int) (*Result, error) {
	b, err := p.behavior()
	if err != nil {
		return nil, err
	}
	if err := validateRun(o, warmup, queries); err != nil {
		return nil, err
	}
	s := core.NewSimulation(o.coreConfig(), b)
	return newResult(p, s.RunMeasured(warmup, queries)), nil
}

// TraceEvent is one traced action of a recorded run (Trace.Events,
// Result.TracePhases).
type TraceEvent struct {
	// AtSeconds is the virtual timestamp in seconds.
	AtSeconds float64
	// Kind is the action name: submit, forward, duplicate, storage-hit,
	// cache-hit, response-hop, cached, download, failed, phase.
	Kind string
	// Query is the query's sequence number (0 for phase events).
	Query uint64
	// Peer is the acting peer; From the counterpart peer for link-crossing
	// actions (-1 otherwise): a duplicate or a hit names the peer that sent
	// the query, unless the hit is at submission. Network-wide events
	// (scenario phase entries) carry no acting peer and set both to -1.
	Peer, From int
	// Detail is a short annotation (filename, provider, delta size,
	// scenario phase identity).
	Detail string
}

// String renders the event as a log line.
func (e TraceEvent) String() string {
	if e.Peer < 0 {
		// Network-wide event (scenario phase entry): no query, no peer.
		return fmt.Sprintf("%9.3fs ------ %-12s %s", e.AtSeconds, e.Kind, e.Detail)
	}
	if e.From >= 0 {
		return fmt.Sprintf("%9.3fs q=%-4d %-12s peer=%-4d from=%-4d %s", e.AtSeconds, e.Query, e.Kind, e.Peer, e.From, e.Detail)
	}
	return fmt.Sprintf("%9.3fs q=%-4d %-12s peer=%-4d           %s", e.AtSeconds, e.Query, e.Kind, e.Peer, e.Detail)
}

// liftEvents converts internal trace events to the facade shape (virtual
// time in seconds, kind as its name).
func liftEvents(in []trace.Event) []TraceEvent {
	if len(in) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(in))
	for i, e := range in {
		out[i] = TraceEvent{
			AtSeconds: e.At.Seconds(),
			Kind:      e.Kind.String(),
			Query:     e.Query,
			Peer:      e.Peer,
			From:      e.From,
			Detail:    e.Detail,
		}
	}
	return out
}

// Figure identifies one of the paper's evaluation figures.
type Figure string

// The paper's three figures.
const (
	FigureDownloadDistance Figure = "fig2-download-distance"
	FigureSearchTraffic    Figure = "fig3-search-traffic"
	FigureSuccessRate      Figure = "fig4-success-rate"
)

// Estimate is a cross-trial sample statistic of one metric: the mean over
// Options.Trials independent replications with its spread.
type Estimate struct {
	// N is the number of trials the estimate pools.
	N int
	// Mean, StdDev and CI95 are the sample mean, the sample standard
	// deviation, and the 95% normal-approximation confidence half-width of
	// the mean (0 for a single trial).
	Mean, StdDev, CI95 float64
}

// String renders the estimate as "mean±ci95", or the bare mean when it
// pools fewer than two trials (a single number has no spread).
func (e Estimate) String() string {
	if e.N < 2 {
		return fmt.Sprintf("%.3f", e.Mean)
	}
	return fmt.Sprintf("%.3f±%.3f", e.Mean, e.CI95)
}

func toEstimate(s stats.Summary) Estimate {
	return Estimate{N: s.N, Mean: s.Mean, StdDev: s.StdDev, CI95: s.CI95()}
}

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
	run := liftPhaseStats(cell.Summary.PhaseStats)
	tr := &TrialsResult{
		Protocol:            p,
		SuccessRate:         run.SuccessRate,
		AvgMessagesPerQuery: run.AvgMessagesPerQuery,
		AvgDownloadRTTMs:    run.AvgDownloadRTTMs,
		SameLocalityRate:    run.SameLocalityRate,
		CacheHitRate:        run.CacheHitRate,
		AvgHops:             run.AvgHops,
		ControlMessages:     toEstimate(cell.Summary.ControlMessages),
		ControlKbits:        toEstimate(cell.Summary.ControlKbits),
		CachedFilenames:     toEstimate(cell.Summary.CachedFilenames),
	}
	for _, ps := range cell.PhaseStats {
		tr.Phases = append(tr.Phases, liftPhaseStats(ps))
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
// Checkpoints are the cumulative query counts the figures plot (nil means
// ten equal steps).
func Compare(o Options, protocols []Protocol, warmup, queries int, checkpoints []int) (*Comparison, error) {
	protocols, behaviors, err := behaviorsOf(protocols)
	if err != nil {
		return nil, err
	}
	if err := validateRun(o, warmup, queries); err != nil {
		return nil, err
	}
	tc := core.RunTrialComparison(o.coreConfig(), behaviors,
		core.TrialOptions{Trials: o.Trials, Workers: o.Workers}, warmup, queries, checkpoints)
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
	if err := checkRecorder(o.FlightRecorder); err != nil {
		return LocalityReport{}, err
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

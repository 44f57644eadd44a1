// Command locaware runs the Locaware paper's simulations:
//
//	locaware run [flags]                      # one protocol in one world
//	locaware fig 2|3|4|all [flags]            # §5.2 Figs. 2–4; all adds the headline claims
//	locaware scenario list|NAME|PATH [flags]  # the four protocols under phased dynamics
//	locaware sweep list|NAME|PATH [flags]     # a parameter-grid campaign
//	locaware trace [flags]                    # one flight-recorded run
//
// Every subcommand takes the world flags, one per core.Params row (-peers,
// -avg-degree, -ttl, …) at the paper's values, and -seed, -warmup and
// -queries; `locaware CMD -h` lists the rest. run prints one protocol's
// summary, or with -json its Result; -scenario steady-churn adds churn.
//
// fig, scenario and sweep compare the four protocols: -trials N averages N
// seeded worlds into mean±95%CI cells, -workers W bounds the worker pool
// without changing a byte, -stats appends the runtime report, -obs-addr
// serves /metrics and /debug/pprof/, and -flight-recorder N keeps the N
// slowest and every failed query's span tree. A sweep prints one table
// per figure metric of its spec and its tidy CSV (-out DIR writes them as
// files); a given -trials, -seed, -warmup, -queries or world flag
// overrides the spec, a default never does. -checkpoint DIR keeps one
// file per finished cell, and a re-run resumes from them, re-running any
// stale or damaged cell; delete DIR to start over.
//
// trace runs a small world (100 peers, -query-rate 0.01, no warm-up, 10
// queries) under the flight recorder and prints every query's events as
// one timeline in virtual time, scenario phases inline; -slowest,
// -keep-failed or -min-hops keep only the matching queries, as span trees.
// -trace-out writes Perfetto JSON:
//
//	locaware trace -slowest 3 -queries 200 -trace-out perfetto.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	locaware "github.com/p2prepro/locaware"
)

// commands maps each subcommand to its runner; positional names the one
// argument a subcommand takes, before or after its flags.
var (
	commands   = map[string]func(*config){"run": runOne, "fig": runFigures, "scenario": runScenario, "sweep": runSweep, "trace": runTrace}
	positional = map[string]string{"fig": "2|3|4|all", "scenario": "list|NAME|PATH", "sweep": "list|NAME|PATH"}
)

// config holds one invocation's parsed command line; each subcommand reads
// the fields its FlagSet binds.
type config struct {
	fs       *flag.FlagSet
	arg      string // the positional argument
	opts     locaware.Options
	observer *locaware.Observer
	query    uint64
	progress time.Duration

	warmup, queries, maxEvents, slowest, minHops, flightRec                        int
	asJSON, records, keepFailed, stats, csv                                        bool
	protocol, scenario, traceOut, obsAddr, cpuprofile, memprofile, out, checkpoint string
}

// newFlagSet builds a subcommand's FlagSet, c.fs: the world flags from
// Options.BindFlags, -seed, -warmup and -queries, then the subcommand's
// own. trace's small-world defaults are set before binding, so -h prints
// them.
func newFlagSet(name string) *config {
	c := &config{opts: locaware.DefaultOptions(), warmup: 1000, queries: 2000}
	if name == "trace" {
		// Accelerated arrivals, so traces cover little virtual time.
		c.opts.Peers, c.opts.QueryRate, c.warmup, c.queries = 100, 0.01, 0, 10
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	c.fs = fs
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: locaware %s %s[flags]\n", name, strings.TrimPrefix(positional[name]+" ", " "))
		fs.PrintDefaults()
	}
	c.opts.BindFlags(fs)
	fs.Int64Var(&c.opts.Seed, "seed", c.opts.Seed, "random seed")
	fs.IntVar(&c.warmup, "warmup", c.warmup, "warmup queries (records discarded)")
	fs.IntVar(&c.queries, "queries", c.queries, "measured queries")
	switch name {
	case "run", "trace":
		fs.StringVar(&c.protocol, "protocol", "Locaware", "protocol: Flooding|Dicas|Dicas-Keys|Locaware")
		fs.StringVar(&c.scenario, "scenario", "", "run under a phased-dynamics scenario: a built-in name or a JSON spec path")
	default:
		fs.IntVar(&c.opts.Trials, "trials", 1, "independent replications per experiment cell")
		fs.IntVar(&c.opts.Workers, "workers", 0, "max concurrent simulations (0 = one per CPU)")
		fs.BoolVar(&c.stats, "stats", false, "print a runtime observability report (event loop, protocol, pools) after the experiment")
		fs.StringVar(&c.obsAddr, "obs-addr", "", "serve /metrics and /debug/pprof/ on this address (host:port) for the lifetime of the process")
		fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file at exit")
		fs.IntVar(&c.flightRec, "flight-recorder", 0, "attach a tail-sampling flight recorder keeping the N slowest plus all failed queries; figures/scenarios print trial-0 span trees, sweeps print a worst-case exemplar per cell")
	}
	switch name {
	case "run":
		fs.BoolVar(&c.asJSON, "json", false, "emit the result as JSON")
	case "trace":
		fs.Uint64Var(&c.query, "query", 0, "print only this query id (0 = all)")
		fs.IntVar(&c.maxEvents, "max-events", 20000, "per-query event cap of the recorder's buffer")
		fs.BoolVar(&c.records, "records", false, "print the per-query record table (full-fidelity RetainRecords mode)")
		fs.IntVar(&c.slowest, "slowest", 0, "span trees: keep the N slowest queries")
		fs.BoolVar(&c.keepFailed, "keep-failed", false, "span trees: keep every failed query")
		fs.IntVar(&c.minHops, "min-hops", 0, "span trees: keep queries reaching at least this forward depth")
		fs.StringVar(&c.traceOut, "trace-out", "", "write retained traces as Chrome/Perfetto trace JSON to this file")
	case "fig":
		fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned tables")
	case "sweep":
		fs.StringVar(&c.out, "out", "", "directory to write the campaign's CSV exports into")
		fs.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint finished cells into this directory (one content-addressed file per cell); a re-run resumes")
		fs.DurationVar(&c.progress, "progress", 0, "print a progress summary (done/rate/ETA) as a cell finishes, at most once per interval, e.g. -progress 5s")
	}
	return c
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: locaware run|fig|scenario|sweep|trace [args] [flags]; locaware CMD -h lists CMD's flags")
		os.Exit(2)
	}
	name := os.Args[1]
	c := newFlagSet(name)
	fs := c.fs
	fs.Parse(os.Args[2:])
	if fs.NArg() > 0 && positional[name] != "" {
		c.arg = fs.Arg(0)
		fs.Parse(fs.Args()[1:])
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "locaware %s: unexpected argument %q\n", name, fs.Arg(0))
	}
	if fs.NArg() > 0 || c.arg == "" && positional[name] != "" {
		fs.Usage()
		os.Exit(2)
	}
	c.startHarness()
	defer stopProfiles()
	commands[name](c)
	if c.stats {
		fmt.Println("\n== Runtime metrics (Prometheus text exposition)")
		check(c.observer.WriteMetrics(os.Stdout))
	}
}

// startHarness starts what fig, scenario and sweep share, when asked for:
// profiles, the observer behind -stats and -obs-addr, and the flight
// recorder.
func (c *config) startHarness() {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
	}
	memProfilePath = c.memprofile
	// Observability and the flight recorder are inert, so attach them
	// whenever a sink wants them.
	if c.stats || c.obsAddr != "" {
		c.observer = locaware.NewObserver()
		c.opts.Observer = c.observer
	}
	if c.flightRec != 0 {
		c.opts.FlightRecorder = &locaware.FlightRecorder{SlowestN: c.flightRec, KeepFailed: true}
	}
	if c.obsAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "locaware: serving /metrics and /debug/pprof/ on", c.obsAddr)
			if err := http.ListenAndServe(c.obsAddr, c.observer.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "locaware: obs server:", err)
			}
		}()
	}
}

// loadScenario resolves -scenario into the options, when given.
func (c *config) loadScenario() *locaware.Scenario {
	if c.scenario == "" {
		return nil
	}
	sc, err := locaware.LoadScenario(c.scenario)
	check(err)
	c.opts.Scenario = sc
	return sc
}

func runOne(c *config) {
	c.loadScenario()
	res, err := locaware.Run(c.opts, locaware.Protocol(c.protocol), c.warmup, c.queries)
	check(err)
	if c.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(res))
		return
	}
	peers := c.opts.Peers
	fmt.Printf("protocol            %s\n", res.Protocol)
	fmt.Printf("peers               %d\n", peers)
	fmt.Printf("measured queries    %d (after %d warmup)\n", res.Queries, c.warmup)
	fmt.Printf("simulated time      %.1f s\n", res.SimulatedSeconds)
	fmt.Printf("events processed    %d\n", res.Events)
	fmt.Println()
	fmt.Printf("success rate        %.4f\n", res.SuccessRate)
	fmt.Printf("messages/query      %.2f\n", res.AvgMessagesPerQuery)
	fmt.Printf("download RTT        %.2f ms\n", res.AvgDownloadRTTMs)
	fmt.Printf("same-locality rate  %.4f\n", res.SameLocalityRate)
	fmt.Printf("avg hops to hit     %.2f\n", res.AvgHops)
	fmt.Println()
	fmt.Printf("bloom gossip        %d messages, %.2f kbit\n", res.ControlMessages, res.ControlKbits)
	fmt.Printf("cached filenames    %d (%.2f per peer)\n", res.CachedFilenames, float64(res.CachedFilenames)/float64(peers))
	fmt.Printf("provider entries    %d\n", res.CachedProviderEntries)
}

// figures maps fig's argument to the figure and its title.
var figures = map[string]struct {
	fig   locaware.Figure
	title string
}{
	"2": {locaware.FigureDownloadDistance, "Figure 2: download distance (ms) vs number of queries"},
	"3": {locaware.FigureSearchTraffic, "Figure 3: search traffic (messages/query) vs number of queries"},
	"4": {locaware.FigureSuccessRate, "Figure 4: success rate vs number of queries"},
}

func runFigures(c *config) {
	names := []string{c.arg}
	if c.arg == "all" {
		names = []string{"2", "3", "4"}
	} else if _, ok := figures[c.arg]; !ok {
		fatal(fmt.Errorf("unknown figure %q: want 2, 3, 4 or all", c.arg))
	}
	cmp, err := locaware.Compare(c.opts, locaware.Baselines(), c.warmup, c.queries, nil)
	check(err)
	for _, name := range names {
		title := figures[name].title
		if c.opts.Trials > 1 {
			title += fmt.Sprintf(" (mean±95%%CI over %d trials)", c.opts.Trials)
		}
		fmt.Println("==", title)
		if c.csv {
			fmt.Print(cmp.FigureCSV(figures[name].fig))
		} else {
			fmt.Print(cmp.FigureTable(figures[name].fig))
		}
		fmt.Println()
	}
	if c.arg == "all" {
		h := cmp.Headlines()
		fmt.Println("== Headline claims (paper: -14% distance, -98% traffic, +23%/+33% hit ratio)")
		fmt.Printf("download distance vs others   %+.1f%%\n", 100*h.DistanceReduction)
		fmt.Printf("search traffic vs flooding    %+.1f%%\n", 100*h.TrafficReductionVsFlooding)
		fmt.Printf("success rate vs Dicas         %+.1f%%\n", 100*h.HitGainVsDicas)
		fmt.Printf("success rate vs Dicas-Keys    %+.1f%%\n", 100*h.HitGainVsDicasKeys)
		fmt.Println()
		fmt.Println("== Per-protocol summary")
		for _, r := range cmp.Sets {
			fmt.Printf("%-12s success=%s msgs/q=%s rtt=%sms sameLoc=%s gossip=%.0f msgs\n",
				r.Protocol, r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs,
				r.SameLocalityRate, r.ControlMessages.Mean)
		}
	}
	if c.stats {
		for _, r := range cmp.Sets {
			if r.Trials[0].Runtime != nil {
				fmt.Printf("\n== %s (trial 0) ", r.Protocol)
				fmt.Print(r.Trials[0].Runtime.Report())
			}
		}
	}
	c.printTrialZeroTraces(cmp)
}

func runScenario(c *config) {
	if c.arg == "list" {
		fmt.Println("== Built-in scenarios")
		for _, name := range locaware.ScenarioNames() {
			sc, err := locaware.LoadScenario(name)
			check(err)
			fmt.Printf("%-16s %-10s %s\n", sc.Name(),
				fmt.Sprintf("%d phases", len(sc.PhaseNames())), sc.Description())
		}
		return
	}
	c.scenario = c.arg
	sc := c.loadScenario()
	fmt.Printf("== Scenario %q: %s\n", sc.Name(), sc.Description())
	fmt.Printf("phases: %s over %d measured queries\n\n", strings.Join(sc.PhaseNames(), " → "), c.queries)
	cmp, err := locaware.Compare(c.opts, locaware.Baselines(), c.warmup, c.queries, nil)
	check(err)
	if c.opts.Trials > 1 {
		fmt.Printf("(per-phase cells are mean±95%%CI over %d trials)\n\n", c.opts.Trials)
	}
	for _, r := range cmp.Sets {
		fmt.Printf("-- %s (whole run: success=%s msgs/q=%s rtt=%sms)\n",
			r.Protocol, r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs)
		fmt.Print(r.PhaseTable())
		fmt.Println()
	}
	c.printTrialZeroTraces(cmp)
}

// printTrialZeroTraces prints every protocol's trial-0 flight-recorder
// retentions, when -flight-recorder is on: a summary line per kept query
// plus the slowest one's full span tree.
func (c *config) printTrialZeroTraces(cmp *locaware.Comparison) {
	if c.opts.FlightRecorder == nil {
		return
	}
	for _, set := range cmp.Sets {
		r := set.Trials[0]
		if r == nil || len(r.Traces) == 0 {
			continue
		}
		fmt.Printf("\n== Flight recorder: %s (trial 0) — %d trace(s) retained\n", set.Protocol, len(r.Traces))
		for _, t := range r.Traces {
			fmt.Printf("kept=%-16s q=%-6d latency=%8.3fs hops=%-3d %s\n",
				t.Why, t.Query, t.Latency.Seconds(), t.Hops, status[t.Failed])
		}
		fmt.Printf("slowest query (q=%d):\n%s", r.Traces[0].Query, r.Traces[0].Render())
	}
}

// status names a kept query's outcome.
var status = map[bool]string{false: "ok", true: "FAILED"}

// runSweep runs a campaign in-process, checkpointed when -checkpoint is
// given.
func runSweep(c *config) {
	if c.arg == "list" {
		fmt.Println("== Built-in sweep campaigns")
		for _, name := range locaware.SweepNames() {
			sw, err := locaware.LoadSweep(name)
			check(err)
			fmt.Printf("%-18s %-9s %s\n", sw.Name(),
				fmt.Sprintf("%d cells", sw.NumCells()), sw.Description())
		}
		return
	}
	sw, err := locaware.LoadSweep(c.arg)
	check(err)
	// Given flags override the spec; defaults never do. A world flag goes
	// through the spec's base, which would otherwise win over it wherever
	// the spec pins that parameter (cache-sweep pins its peers).
	world := flag.NewFlagSet("", flag.ContinueOnError)
	new(locaware.Options).BindFlags(world)
	warmup, queries := sw.Warmup(), sw.Queries()
	c.fs.Visit(func(f *flag.Flag) {
		switch {
		case world.Lookup(f.Name) != nil:
			v, _ := strconv.ParseFloat(f.Value.String(), 64) // an int or float64 flag's own rendering
			sw, err = sw.WithBase(f.Name, v)
			check(err)
		case f.Name == "trials":
			sw = sw.WithTrials(c.opts.Trials)
		case f.Name == "seed":
			sw = sw.WithSeed(c.opts.Seed)
		case f.Name == "warmup":
			warmup = c.warmup
		case f.Name == "queries":
			queries = c.queries
		}
	})
	sw = sw.WithBudget(warmup, queries)
	res, stats, err := locaware.RunSweepCheckpointed(c.opts, sw, locaware.CampaignOptions{
		Checkpoint: c.checkpoint,
		Resume:     true,
		Progress:   c.progress,
		Logf: func(format string, args ...any) {
			fmt.Printf("campaign: "+format+"\n", args...)
		},
	})
	check(err)
	fmt.Printf("== Sweep campaign %q: %s\n", sw.Name(), sw.Description())
	fmt.Printf("axes: %s | %d cells × %d protocols × %d trials = %d runs (seed %d)\n\n",
		strings.Join(sw.Axes(), ", "), res.NumCells(), len(sw.Protocols()), res.Trials(), res.Runs(), res.Seed())
	for _, metric := range sw.Figures() {
		table, err := res.FigureTable(metric, "")
		check(err)
		if res.Trials() > 1 {
			fmt.Printf("-- %s (mean±95%%CI over %d trials)\n%s\n", res.FigureTitle(metric), res.Trials(), table)
		} else {
			fmt.Printf("-- %s\n%s\n", res.FigureTitle(metric), table)
		}
	}
	fmt.Println("== Tidy CSV (cell × protocol)")
	fmt.Print(res.CSV())
	if phases := res.PhaseCSV(); phases != "" {
		fmt.Println("\n== Per-phase CSV (cell × protocol × phase)")
		fmt.Print(phases)
	}
	fmt.Printf("\ncompleted %d cells (%d runs) in %.1fs — %.2f cells/sec\n",
		res.NumCells(), res.Runs(), res.Elapsed().Seconds(), res.CellsPerSecond())
	if c.checkpoint != "" {
		fmt.Printf("campaign: %d/%d cells resumed from checkpoints, %d executed\n", stats.Resumed, stats.Cells, stats.Executed)
		for _, w := range stats.Warnings {
			fmt.Println("campaign warning:", w)
		}
	}
	if c.opts.FlightRecorder != nil {
		printExemplars(res)
	}
	if c.out != "" {
		writeSweepExports(res, sw.Figures(), c.out)
	}
}

// printExemplars prints each cell's worst-case query trace summary plus the
// campaign-wide slowest one's full span tree.
func printExemplars(res *locaware.SweepResult) {
	fmt.Println("\n== Exemplar traces (worst query per cell)")
	var worst *locaware.SweepExemplar
	worstCell := 0
	for i := 0; i < res.NumCells(); i++ {
		ex, err := res.CellExemplar(i)
		check(err)
		if ex == nil {
			continue
		}
		fmt.Printf("cell %-4d %-14s trial=%-3d q=%-6d latency=%8.3fs hops=%-3d %s\n",
			i, ex.Protocol, ex.Trial, ex.Query, ex.LatencySeconds, ex.Hops, status[ex.Failed])
		if worst == nil || ex.LatencySeconds > worst.LatencySeconds {
			worst, worstCell = ex, i
		}
	}
	if worst == nil {
		fmt.Println("(none retained — no query matched the retention policy)")
		return
	}
	fmt.Printf("\nslowest overall (cell %d, q=%d):\n%s", worstCell, worst.Query, worst.Rendered)
}

// writeSweepExports writes the campaign's CSV artefacts into a directory:
// cells.csv, phases.csv (scenario campaigns only) and one figure-shaped
// fig_<metric>.csv per figure metric of the spec.
func writeSweepExports(res *locaware.SweepResult, figures []string, dir string) {
	check(os.MkdirAll(dir, 0o755))
	write := func(name, content string) {
		if content == "" {
			return
		}
		path := filepath.Join(dir, name)
		check(os.WriteFile(path, []byte(content), 0o644))
		fmt.Println("wrote", path)
	}
	write("cells.csv", res.CSV())
	write("phases.csv", res.PhaseCSV())
	for _, metric := range figures {
		csv, err := res.FigureCSV(metric, "")
		check(err)
		write("fig_"+metric+".csv", csv)
	}
}

func runTrace(c *config) {
	pol := locaware.FlightRecorder{SlowestN: c.slowest, KeepFailed: c.keepFailed, MinHops: c.minHops, MaxEventsPerQuery: c.maxEvents}
	trees := pol.SlowestN != 0 || pol.KeepFailed || pol.MinHops != 0
	if !trees {
		pol.SlowestN = c.warmup + c.queries
	}
	c.opts.FlightRecorder = &pol
	// Keep per-query records so the event stream can be cross-checked
	// against each query's final outcome.
	c.opts.RetainRecords = c.records
	if sc := c.loadScenario(); sc != nil {
		fmt.Printf("scenario %q: phases %s\n", sc.Name(), strings.Join(sc.PhaseNames(), " → "))
	}
	res, err := locaware.Run(c.opts, locaware.Protocol(c.protocol), c.warmup, c.queries)
	check(err)

	var shown []*locaware.Trace
	dropped := 0
	for _, t := range res.Traces {
		if c.query == 0 || t.Query == c.query {
			shown = append(shown, t)
			dropped += t.Dropped
		}
	}
	if trees {
		for i, t := range shown {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("kept=%s\n%s", t.Why, t.Render())
		}
	} else {
		printTimeline(shown, res.TracePhases)
	}
	if c.records {
		fmt.Printf("\n%-6s %-8s %-8s %10s %8s %8s %6s\n", "query", "success", "msgs", "rtt(ms)", "sameLoc", "cached", "hops")
		for _, r := range res.Records {
			// Record IDs restart at 1 for the measured phase while trace
			// events number queries network-wide (warmup included); offset
			// so -query selects the same query in both views.
			qid := r.ID + uint64(c.warmup)
			if c.query != 0 && qid != c.query {
				continue
			}
			fmt.Printf("%-6d %-8v %-8d %10.1f %8v %8v %6d\n",
				qid, r.Success, r.Messages, r.DownloadRTT, r.SameLocality, r.FromCache, r.Hops)
		}
	}
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		check(err)
		check(res.WritePerfetto(f))
		check(f.Close())
		fmt.Printf("\nwrote %d trace(s) to %s (load at ui.perfetto.dev or chrome://tracing)\n", len(res.Traces), c.traceOut)
	}
	fmt.Printf("\n%d of %d retained traces shown; run summary: success=%.3f msgs/query=%.1f rtt=%.1fms\n",
		len(shown), len(res.Traces), res.SuccessRate, res.AvgMessagesPerQuery, res.AvgDownloadRTTMs)
	if dropped > 0 {
		fmt.Printf("warning: %d events dropped; raise -max-events\n", dropped)
	}
}

// printTimeline prints the traces' events and the phase entries as one log
// merged by virtual time. Each query's events keep their emission order;
// events of different queries at one instant print in query order, after
// any phase entry at that instant (a phase is entered just before the
// submission that crosses into it).
func printTimeline(traces []*locaware.Trace, phases []locaware.TraceEvent) {
	byQuery := append([]*locaware.Trace(nil), traces...)
	sort.Slice(byQuery, func(i, j int) bool { return byQuery[i].Query < byQuery[j].Query })
	events := append([]locaware.TraceEvent(nil), phases...)
	for _, t := range byQuery {
		events = append(events, t.Events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		fmt.Println(e)
	}
}

// memProfilePath is -memprofile's file, which stopProfiles writes once:
// deferred in main, or from fatal, which os.Exit would otherwise take past
// the defer, leaving a truncated CPU profile and no heap profile.
var memProfilePath string

func stopProfiles() {
	pprof.StopCPUProfile()
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	memProfilePath = ""
	if err == nil {
		runtime.GC() // settle allocations so the profile shows live heap
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "locaware: heap profile:", err)
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "locaware:", strings.TrimPrefix(err.Error(), "locaware: "))
	os.Exit(1)
}

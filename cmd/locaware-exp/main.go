// Command locaware-exp regenerates the Locaware paper's evaluation figures
// and runs its parameter studies as sweep campaigns.
//
// Figures (paper §5.2):
//
//	locaware-exp -fig 2      # download distance vs #queries (Fig. 2)
//	locaware-exp -fig 3      # search traffic vs #queries   (Fig. 3)
//	locaware-exp -fig 4      # success rate vs #queries     (Fig. 4)
//	locaware-exp -fig all    # everything + headline claims
//
// Replication and parallelism: every experiment accepts -trials N to
// average over N independently seeded worlds (figure cells become
// mean±95%CI, as the paper's averaged PeerSim runs) and -workers W to bound
// the simulation worker pool (0 = one per CPU). Results are identical for
// any -workers value.
//
//	locaware-exp -fig all -trials 8             # error-barred figures
//	locaware-exp -sweep cache-sweep -trials 4   # replicated study
//
// Scenarios (phased network dynamics with per-phase metrics):
//
//	locaware-exp -scenario list                  # built-in registry
//	locaware-exp -scenario flashcrowd            # run a built-in scenario
//	locaware-exp -scenario flashcrowd -trials 8  # per-phase mean±95%CI tables
//	locaware-exp -scenario my.json               # run a custom JSON spec
//
// Sweep campaigns (declarative parameter grids with streamed cross-trial
// aggregation and figure export):
//
//	locaware-exp -sweep list          # built-in campaign registry
//	locaware-exp -sweep size-sweep    # run a built-in campaign
//	locaware-exp -sweep my.json       # run a custom JSON campaign
//	locaware-exp -sweep ttl-sweep -out results/   # also write CSV files
//
// The paper's ablations and extensions are built-in campaigns, so they fan
// out across CPUs, checkpoint and export like any other:
//
//	locaware-exp -sweep landmark-sweep   # 3/4/5 landmarks (§5.1 discussion)
//	locaware-exp -sweep cache-sweep      # RI capacity
//	locaware-exp -sweep bloom-sweep      # Bloom filter size vs gossip kbit
//	locaware-exp -sweep group-sweep      # Dicas group count M vs cached filenames
//	locaware-exp -sweep churn-sweep      # churn resilience (steady-churn intensity)
//
// A campaign prints one table per metric its spec lists under "figures"
// (mean±95%CI per cell; default success, msgs, rtt) and its tidy CSV; -out
// additionally writes cells.csv, phases.csv (under scenarios) and one
// fig_<metric>.csv per figure metric into a directory. The
// -trials/-seed/-warmup/-queries flags override the campaign spec only
// when set explicitly on the command line.
//
// Resumable campaigns (see README "Resumable campaigns"):
//
//	locaware-exp -sweep ttl-sweep -checkpoint ckpt/     # checkpoint per cell; re-run resumes
//
// Checkpoints are bound to the campaign's content hash (spec + seed +
// trials + protocols + base flags), so stale files are detected and
// their cells re-run; -resume=false ignores existing checkpoints.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	// The world's flags bind straight to the Options they set, so the
	// paper's defaults are DefaultOptions' and nobody else's.
	opts := locaware.DefaultOptions()
	flag.IntVar(&opts.Peers, "peers", opts.Peers, "number of peers")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	flag.IntVar(&opts.Trials, "trials", 1, "independent replications per experiment cell")
	flag.IntVar(&opts.Workers, "workers", 0, "max concurrent simulations (0 = one per CPU)")
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 2|3|4|all")
		scen       = flag.String("scenario", "", "phased-dynamics scenario: a built-in name, a JSON spec path, or 'list'")
		sweepArg   = flag.String("sweep", "", "sweep campaign: a built-in name, a JSON spec path, or 'list'")
		out        = flag.String("out", "", "directory to write sweep CSV exports into")
		checkpoint = flag.String("checkpoint", "", "with -sweep: checkpoint finished cells into this directory (one content-addressed file per cell)")
		resume     = flag.Bool("resume", true, "with -checkpoint: load existing checkpoints and execute only the missing cells (-resume=false re-runs everything)")
		warmup     = flag.Int("warmup", 1000, "warmup queries")
		queries    = flag.Int("queries", 2000, "measured queries")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		stats      = flag.Bool("stats", false, "print a runtime observability report (event loop, protocol, pools) after the experiment")
		progress   = flag.Duration("progress", 0, "with -sweep campaigns: print one progress summary per interval (done/rate/ETA), e.g. -progress 5s")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics and /debug/pprof/ on this address (host:port) for the lifetime of the process")
		flightRec  = flag.Int("flight-recorder", 0, "attach a tail-sampling flight recorder keeping the N slowest plus all failed queries; figures/scenarios print trial-0 span trees, sweeps print a worst-case exemplar per cell")
	)
	flag.Parse()
	set := setFlags()
	if set["fig"] && set["scenario"] || (set["fig"] || set["scenario"]) && set["sweep"] {
		fatal(fmt.Errorf("-fig, -scenario and -sweep each name a mode: give one"))
	}
	for _, rule := range [][2]string{{"checkpoint", "sweep"}, {"resume", "sweep"}, {"out", "sweep"}, {"progress", "sweep"}, {"csv", "fig"}} {
		if set[rule[0]] && !set[rule[1]] {
			fatal(fmt.Errorf("-%s needs -%s", rule[0], rule[1]))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfileFile = f
		defer stopProfiles()
	}
	if *memprofile != "" {
		memProfilePath = *memprofile
		defer stopProfiles()
	}

	// Observability is inert, so attach it whenever any sink wants it:
	// the -stats report or the -obs-addr scrape surface.
	if *stats || *obsAddr != "" {
		observer = locaware.NewObserver()
		statsMode = *stats
		opts.Observer = observer
	}
	// The flight recorder is likewise inert: figures and scenarios print
	// trial-0 traces after the tables, campaign cells carry exemplars.
	if *flightRec > 0 {
		recorder = &locaware.FlightRecorder{SlowestN: *flightRec, KeepFailed: true}
		opts.FlightRecorder = recorder
	}
	if *obsAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "locaware-exp: serving /metrics and /debug/pprof/ on", *obsAddr)
			if err := http.ListenAndServe(*obsAddr, observer.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "locaware-exp: obs server:", err)
			}
		}()
	}

	switch {
	case *fig != "":
		runFigures(opts, *fig, *warmup, *queries, *csv)
	case *scen != "":
		runScenario(opts, *scen, *warmup, *queries)
	case *sweepArg != "":
		copt := locaware.CampaignOptions{
			Checkpoint: *checkpoint,
			Resume:     *resume,
			Progress:   *progress,
			Logf: func(format string, args ...any) {
				fmt.Printf("campaign: "+format+"\n", args...)
			},
		}
		runSweep(opts, *sweepArg, *out, set, *warmup, *queries, copt)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if statsMode {
		fmt.Println("\n== Runtime metrics (Prometheus text exposition)")
		if err := observer.WriteMetrics(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// observer / statsMode hold the process-wide observability surface when
// -stats or -obs-addr enables it; recorder holds the -flight-recorder
// tail-sampling policy.
var (
	observer  *locaware.Observer
	statsMode bool
	recorder  *locaware.FlightRecorder
)

// printTraces prints one run's flight-recorder retentions: a summary line
// per kept query plus the slowest one's full span tree.
func printTraces(label string, r *locaware.Result) {
	if r == nil || len(r.Traces) == 0 {
		return
	}
	fmt.Printf("\n== Flight recorder: %s — %d trace(s) retained\n", label, len(r.Traces))
	for _, t := range r.Traces {
		status := "ok"
		if t.Failed {
			status = "FAILED"
		}
		fmt.Printf("kept=%-16s q=%-6d latency=%8.3fs hops=%-3d %s\n",
			t.Why, t.Query, t.LatencySeconds, t.Hops, status)
	}
	fmt.Printf("slowest query (q=%d):\n%s", r.Traces[0].Query, r.Traces[0].Render())
}

// printTrialZeroTraces prints every protocol's trial-0 flight-recorder
// retentions when -flight-recorder is on.
func printTrialZeroTraces(cmp *locaware.Comparison) {
	if recorder == nil {
		return
	}
	for _, r := range cmp.Sets {
		printTraces(fmt.Sprintf("%s (trial 0)", r.Protocol), r.Trials[0])
	}
}

// setFlags reports which flags were given explicitly on the command line —
// sweep specs carry their own trials/seed/warmup/queries, so flag defaults
// must not silently override them, and a flag of one mode given with
// another is refused, not dropped.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func runScenario(opts locaware.Options, arg string, warmup, queries int) {
	if arg == "list" {
		fmt.Println("== Built-in scenarios")
		for _, name := range locaware.ScenarioNames() {
			sc, err := locaware.ScenarioByName(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %-10s %s\n", sc.Name(),
				fmt.Sprintf("%d phases", len(sc.PhaseNames())), sc.Description())
		}
		return
	}
	sc, err := locaware.LoadScenario(arg)
	if err != nil {
		fatal(err)
	}
	opts.Scenario = sc
	fmt.Printf("== Scenario %q: %s\n", sc.Name(), sc.Description())
	fmt.Printf("phases: %s over %d measured queries\n\n", strings.Join(sc.PhaseNames(), " → "), queries)
	cmp, err := locaware.Compare(opts, locaware.Baselines(), warmup, queries, nil)
	if err != nil {
		fatal(err)
	}
	if opts.Trials > 1 {
		fmt.Printf("(per-phase cells are mean±95%%CI over %d trials)\n\n", opts.Trials)
	}
	for _, r := range cmp.Sets {
		fmt.Printf("-- %s (whole run: success=%s msgs/q=%s rtt=%sms)\n",
			r.Protocol, r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs)
		fmt.Print(r.PhaseTable())
		fmt.Println()
	}
	printTrialZeroTraces(cmp)
}

// runSweep runs a campaign in-process, checkpointed when copt.Checkpoint is
// set.
func runSweep(opts locaware.Options, arg, outDir string, set map[string]bool, warmup, queries int, copt locaware.CampaignOptions) {
	if arg == "list" {
		fmt.Println("== Built-in sweep campaigns")
		for _, name := range locaware.SweepNames() {
			sw, err := locaware.SweepByName(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-18s %-9s %s\n", sw.Name(),
				fmt.Sprintf("%d cells", sw.NumCells()), sw.Description())
		}
		return
	}
	sw, err := locaware.LoadSweep(arg)
	if err != nil {
		fatal(err)
	}
	// Explicit flags override the campaign spec; defaults never do. An
	// explicit -peers must go through the spec's base overrides — specs
	// like cache-sweep pin their own overlay size there, which would
	// silently win over the flag-derived base configuration otherwise.
	if set["peers"] {
		sw, err = sw.WithBase("peers", float64(opts.Peers))
		if err != nil {
			fatal(err)
		}
	}
	if set["trials"] {
		sw = sw.WithTrials(opts.Trials)
	}
	if set["seed"] {
		sw = sw.WithSeed(opts.Seed)
	}
	if !set["warmup"] {
		warmup = sw.Warmup()
	}
	if !set["queries"] {
		queries = sw.Queries()
	}
	sw = sw.WithBudget(warmup, queries)
	res, stats, err := locaware.RunSweepCheckpointed(opts, sw, copt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("== Sweep campaign %q: %s\n", sw.Name(), sw.Description())
	fmt.Printf("axes: %s | %d cells × %d protocols × %d trials = %d runs (seed %d)\n\n",
		strings.Join(sw.Axes(), ", "), res.NumCells(), len(sw.Protocols()), res.Trials(), res.Runs(), res.Seed())
	for _, metric := range sw.Figures() {
		table, err := res.FigureTable(metric, "")
		if err != nil {
			fatal(err)
		}
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
	if copt.Checkpoint != "" {
		fmt.Printf("campaign: %d/%d cells resumed from checkpoints, %d executed\n", stats.Resumed, stats.Cells, stats.Executed)
		for _, w := range stats.Warnings {
			fmt.Println("campaign warning:", w)
		}
	}
	if recorder != nil {
		printExemplars(res)
	}
	if outDir != "" {
		writeSweepExports(res, sw.Figures(), outDir)
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
		if err != nil {
			fatal(err)
		}
		if ex == nil {
			continue
		}
		status := "ok"
		if ex.Failed {
			status = "FAILED"
		}
		fmt.Printf("cell %-4d %-14s trial=%-3d q=%-6d latency=%8.3fs hops=%-3d %s\n",
			i, ex.Protocol, ex.Trial, ex.Query, ex.LatencySeconds, ex.Hops, status)
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	write := func(name, content string) {
		if content == "" {
			return
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write("cells.csv", res.CSV())
	write("phases.csv", res.PhaseCSV())
	for _, metric := range figures {
		csv, err := res.FigureCSV(metric, "")
		if err != nil {
			fatal(err)
		}
		write("fig_"+metric+".csv", csv)
	}
}

func figureOf(name string) (locaware.Figure, string) {
	switch name {
	case "2":
		return locaware.FigureDownloadDistance, "Figure 2: download distance (ms) vs number of queries"
	case "3":
		return locaware.FigureSearchTraffic, "Figure 3: search traffic (messages/query) vs number of queries"
	case "4":
		return locaware.FigureSuccessRate, "Figure 4: success rate vs number of queries"
	}
	return "", ""
}

func runFigures(opts locaware.Options, which string, warmup, queries int, csv bool) {
	cmp, err := locaware.Compare(opts, locaware.Baselines(), warmup, queries, nil)
	if err != nil {
		fatal(err)
	}
	names := []string{which}
	if which == "all" {
		names = []string{"2", "3", "4"}
	}
	for _, name := range names {
		f, title := figureOf(name)
		if f == "" {
			fatal(fmt.Errorf("unknown figure %q", name))
		}
		if opts.Trials > 1 {
			title += fmt.Sprintf(" (mean±95%%CI over %d trials)", opts.Trials)
		}
		fmt.Println("==", title)
		if csv {
			fmt.Print(cmp.FigureCSV(f))
		} else {
			fmt.Print(cmp.FigureTable(f))
		}
		fmt.Println()
	}
	if which == "all" {
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
	if statsMode {
		for _, r := range cmp.Sets {
			if r.Trials[0].Runtime != nil {
				fmt.Printf("\n== %s (trial 0) ", r.Protocol)
				fmt.Print(r.Trials[0].Runtime.Report())
			}
		}
	}
	printTrialZeroTraces(cmp)
}

// cpuProfileFile / memProfilePath hold the active profiling state so
// stopProfiles can finish both profiles exactly once — on the normal defer
// path and in fatal, which would otherwise os.Exit past the defers and
// leave a truncated CPU profile and no heap profile.
var (
	cpuProfileFile *os.File
	memProfilePath string
)

func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
	}
	if memProfilePath != "" {
		path := memProfilePath
		memProfilePath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-exp: heap profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "locaware-exp: heap profile:", err)
		}
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "locaware-exp:", err)
	os.Exit(1)
}

// Command locaware-exp regenerates the Locaware paper's evaluation figures
// and the ablation/extension experiments documented in DESIGN.md.
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
//	locaware-exp -ablation cachesize -trials 4  # replicated sweep
//
// Ablations/extensions:
//
//	locaware-exp -ablation landmarks   # 3/4/5 landmarks (§5.1 discussion)
//	locaware-exp -ablation cachesize   # RI capacity sweep
//	locaware-exp -ablation bloom       # Bloom filter size sweep
//	locaware-exp -ablation groups      # Dicas group count M sweep
//	locaware-exp -extension lr         # location-aware routing (§6)
//	locaware-exp -extension churn      # churn resilience (steady-churn scenario)
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
// A campaign prints its figure tables (mean±95%CI per cell) and its tidy
// CSV; -out additionally writes cells.csv, phases.csv (under scenarios)
// and one fig_<metric>.csv per headline metric into a directory. The
// -trials/-seed/-warmup/-queries flags override the campaign spec only
// when set explicitly on the command line.
//
// Distributed, resumable campaigns (see README "Distributed campaigns"):
//
//	locaware-exp -sweep ttl-sweep -checkpoint ckpt/     # checkpoint per cell; re-run resumes
//	locaware-exp -sweep ttl-sweep -serve :8080 ...      # coordinator: lease cells to workers
//	locaware-exp -sweep ttl-sweep -worker http://host:8080  # worker: lease, run, report
//
// Checkpoints are bound to the campaign's content hash (spec + seed +
// trials + protocols + base flags), so stale files are detected and
// their cells re-run; -resume=false ignores existing checkpoints.
// Coordinator and workers must be launched with the identical spec and
// base flags — a fingerprint mismatch refuses work instead of silently
// computing a different campaign.
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
	"time"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 2|3|4|all")
		ablation   = flag.String("ablation", "", "ablation: landmarks|cachesize|bloom|groups")
		ext        = flag.String("extension", "", "extension: lr|churn")
		scen       = flag.String("scenario", "", "phased-dynamics scenario: a built-in name, a JSON spec path, or 'list'")
		sweepArg   = flag.String("sweep", "", "sweep campaign: a built-in name, a JSON spec path, or 'list'")
		out        = flag.String("out", "", "directory to write sweep CSV exports into")
		serve      = flag.String("serve", "", "with -sweep: run a campaign coordinator on this address (host:port) leasing cells to -worker processes")
		workerURL  = flag.String("worker", "", "with -sweep: run a campaign worker against this coordinator URL (launch with the coordinator's exact spec and flags)")
		checkpoint = flag.String("checkpoint", "", "with -sweep: checkpoint finished cells into this directory (one content-addressed file per cell)")
		resume     = flag.Bool("resume", true, "with -checkpoint: load existing checkpoints and execute only the missing cells (-resume=false re-runs everything)")
		leaseT     = flag.Duration("lease-timeout", 2*time.Minute, "with -serve: reissue a leased cell if its worker has not reported within this deadline")
		peers      = flag.Int("peers", 1000, "number of peers")
		warmup     = flag.Int("warmup", 1000, "warmup queries")
		queries    = flag.Int("queries", 2000, "measured queries")
		seed       = flag.Int64("seed", 1, "random seed")
		trials     = flag.Int("trials", 1, "independent replications per experiment cell")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = one per CPU)")
		shards     = flag.Int("shards", 0, "per-locality event-loop shards per simulation, each drained on its own goroutine (<=1 = single queue; clamped to the occupied locality count)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		stats      = flag.Bool("stats", false, "print a runtime observability report (event loop, protocol, pools) after the experiment")
		progress   = flag.Duration("progress", 0, "with -sweep campaigns: print one progress summary per interval (done/leased/ETA) instead of per-cell lines, e.g. -progress 5s")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics and /debug/pprof/ on this address (host:port) for the lifetime of the process; the -serve coordinator exposes them on its own address automatically")
		flightRec  = flag.Int("flight-recorder", 0, "attach a tail-sampling flight recorder keeping the N slowest plus all failed queries; figures/scenarios print trial-0 span trees, sweeps ship a worst-case exemplar per cell (coordinator serves them on /traces)")
	)
	flag.Parse()

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

	opts := locaware.DefaultOptions()
	opts.Seed = *seed
	opts.Peers = *peers
	opts.Trials = *trials
	opts.Workers = *workers
	opts.Shards = *shards

	// Observability is inert, so attach it whenever any sink wants it:
	// the -stats report, a standalone -obs-addr scrape surface, or the
	// campaign endpoints (coordinator /metrics, worker delta posts).
	if *stats || *obsAddr != "" || *serve != "" || *workerURL != "" {
		observer = locaware.NewObserver()
		statsMode = *stats
		opts.Observer = observer
	}
	// The flight recorder is likewise inert: attach it to single-run
	// experiments through Options (trial-0 traces print after the tables)
	// and to campaigns through CampaignOptions (cells ship exemplars).
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
	case *ablation != "":
		runAblation(opts, *ablation, *warmup, *queries)
	case *ext != "":
		runExtension(opts, *ext, *warmup, *queries)
	case *scen != "":
		runScenario(opts, *scen, *warmup, *queries)
	case *sweepArg != "":
		dist := distOpts{
			serve: *serve, worker: *workerURL,
			checkpoint: *checkpoint, resume: *resume, lease: *leaseT,
			progress: *progress,
		}
		runSweep(opts, *sweepArg, *out, setFlags(), *warmup, *queries, dist)
	case *serve != "" || *workerURL != "" || *checkpoint != "":
		fatal(fmt.Errorf("-serve/-worker/-checkpoint need -sweep to name the campaign"))
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
// any of -stats, -obs-addr, -serve or -worker enables it; recorder holds
// the -flight-recorder tail-sampling policy.
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
// must not silently override them.
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

// distOpts carries the distributed/resumable campaign flags.
type distOpts struct {
	serve      string
	worker     string
	checkpoint string
	resume     bool
	lease      time.Duration
	progress   time.Duration
}

func (d distOpts) enabled() bool { return d.serve != "" || d.worker != "" || d.checkpoint != "" }

func runSweep(opts locaware.Options, arg, outDir string, set map[string]bool, warmup, queries int, dist distOpts) {
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
	if set["warmup"] || set["queries"] {
		w, q := sw.Warmup(), sw.Queries()
		if set["warmup"] {
			w = warmup
		}
		if set["queries"] {
			q = queries
		}
		sw = sw.WithBudget(w, q)
	}
	if dist.serve != "" && dist.worker != "" {
		fatal(fmt.Errorf("-serve and -worker are mutually exclusive: a process is a coordinator or a worker, not both"))
	}
	copt := locaware.CampaignOptions{
		Checkpoint:     dist.checkpoint,
		Resume:         dist.resume,
		LeaseTimeout:   dist.lease,
		Observer:       observer,
		FlightRecorder: recorder,
		Progress:       dist.progress,
		Logf: func(format string, args ...any) {
			fmt.Printf("campaign: "+format+"\n", args...)
		},
	}
	var (
		res   *locaware.SweepResult
		stats locaware.CampaignStats
		err2  error
	)
	switch {
	case dist.worker != "":
		// Worker mode: execute cells for a remote coordinator; the
		// coordinator prints the campaign tables.
		n, err := locaware.WorkSweep(opts, sw, dist.worker, copt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("worker done: executed %d cells\n", n)
		return
	case dist.serve != "":
		res, stats, err2 = locaware.ServeSweep(opts, sw, dist.serve, copt)
	case dist.checkpoint != "":
		res, stats, err2 = locaware.RunSweepCheckpointed(opts, sw, copt)
	default:
		res, err2 = locaware.RunSweep(opts, sw)
	}
	if err2 != nil {
		fatal(err2)
	}
	fmt.Printf("== Sweep campaign %q: %s\n", sw.Name(), sw.Description())
	fmt.Printf("axes: %s | %d cells × %d protocols × %d trials = %d runs (seed %d)\n\n",
		strings.Join(sw.Axes(), ", "), res.NumCells(), len(sw.Protocols()), res.Trials(), res.Runs(), res.Seed())
	figures := []struct{ metric, title string }{
		{"success", "success rate"},
		{"msgs", "search traffic (messages/query)"},
		{"rtt", "download distance (ms)"},
	}
	for _, f := range figures {
		table, err := res.FigureTable(f.metric, "")
		if err != nil {
			fatal(err)
		}
		if res.Trials() > 1 {
			fmt.Printf("-- %s (mean±95%%CI over %d trials)\n%s\n", f.title, res.Trials(), table)
		} else {
			fmt.Printf("-- %s\n%s\n", f.title, table)
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
	if dist.enabled() {
		fmt.Printf("campaign: %d/%d cells resumed from checkpoints, %d executed", stats.Resumed, stats.Cells, stats.Executed)
		if stats.Reissued > 0 || stats.Duplicates > 0 {
			fmt.Printf(", %d leases reissued, %d duplicate results discarded", stats.Reissued, stats.Duplicates)
		}
		fmt.Println()
		for _, w := range stats.Warnings {
			fmt.Println("campaign warning:", w)
		}
	}
	if recorder != nil {
		printExemplars(res)
	}
	if outDir != "" {
		writeSweepExports(res, outDir)
	}
}

// printExemplars prints each cell's worst-case query trace summary plus the
// campaign-wide slowest one's full span tree. A -serve coordinator exposes
// the same collection on /traces while the campaign runs.
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
// fig_<metric>.csv per headline metric.
func writeSweepExports(res *locaware.SweepResult, dir string) {
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
	for _, metric := range []string{"success", "msgs", "rtt"} {
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

func runAblation(opts locaware.Options, which string, warmup, queries int) {
	trialNote(opts)
	switch which {
	case "landmarks":
		fmt.Println("== Ablation: landmark count (paper §5.1: 4 landmarks → 24 locIds; 5 scatter peers too thinly)")
		fmt.Printf("%-10s %14s %16s %14s\n", "landmarks", "success", "rtt(ms)", "sameLoc")
		for _, k := range []int{3, 4, 5} {
			o := opts
			o.Landmarks = k
			r := mustTrials(o, locaware.ProtocolLocaware, warmup, queries)
			fmt.Printf("%-10d %14s %16s %14s\n", k, r.SuccessRate, r.AvgDownloadRTTMs, r.SameLocalityRate)
		}
	case "cachesize":
		fmt.Println("== Ablation: response-index capacity (paper: 50 filenames)")
		fmt.Printf("%-10s %14s %16s %14s\n", "capacity", "success", "rtt(ms)", "msgs/q")
		for _, c := range []int{10, 25, 50, 100, 200} {
			o := opts
			o.CacheFilenames = c
			r := mustTrials(o, locaware.ProtocolLocaware, warmup, queries)
			fmt.Printf("%-10d %14s %16s %14s\n", c, r.SuccessRate, r.AvgDownloadRTTMs, r.AvgMessagesPerQuery)
		}
	case "bloom":
		fmt.Println("== Ablation: Bloom filter size (paper: 1200 bits for 50 filenames × 3 keywords)")
		fmt.Printf("%-10s %14s %14s %18s\n", "bits", "success", "msgs/q", "gossip kbit")
		for _, bits := range []int{300, 600, 1200, 2400} {
			o := opts
			o.BloomBits = bits
			r := mustTrials(o, locaware.ProtocolLocaware, warmup, queries)
			fmt.Printf("%-10d %14s %14s %18s\n", bits, r.SuccessRate, r.AvgMessagesPerQuery, r.ControlKbits)
		}
	case "groups":
		fmt.Println("== Ablation: Dicas group count M (caching density vs routing selectivity)")
		fmt.Printf("%-10s %14s %14s %14s\n", "M", "success", "msgs/q", "cached")
		for _, m := range []int{2, 4, 8, 16} {
			o := opts
			o.Groups = m
			r := mustTrials(o, locaware.ProtocolLocaware, warmup, queries)
			fmt.Printf("%-10d %14s %14s %14s\n", m, r.SuccessRate, r.AvgMessagesPerQuery, r.CachedFilenames)
		}
	default:
		fatal(fmt.Errorf("unknown ablation %q", which))
	}
}

func runExtension(opts locaware.Options, which string, warmup, queries int) {
	trialNote(opts)
	switch which {
	case "lr":
		fmt.Println("== Extension: location-aware routing (paper §6 future work)")
		fmt.Printf("%-14s %14s %16s %14s %14s\n", "protocol", "success", "rtt(ms)", "sameLoc", "msgs/q")
		for _, p := range []locaware.Protocol{locaware.ProtocolLocaware, locaware.ProtocolLocawareLR} {
			r := mustTrials(opts, p, warmup, queries)
			fmt.Printf("%-14s %14s %16s %14s %14s\n", r.Protocol, r.SuccessRate, r.AvgDownloadRTTMs, r.SameLocalityRate, r.AvgMessagesPerQuery)
		}
	case "churn":
		fmt.Println("== Extension: churn resilience (stale indexes filtered at selection)")
		fmt.Printf("%-14s %10s %14s %16s\n", "protocol", "churn", "success", "rtt(ms)")
		steady, err := locaware.ScenarioByName("steady-churn")
		if err != nil {
			fatal(err)
		}
		for _, p := range []locaware.Protocol{locaware.ProtocolDicas, locaware.ProtocolLocaware} {
			for _, sc := range []*locaware.Scenario{nil, steady} {
				o := opts
				o.Scenario = sc
				r := mustTrials(o, p, warmup, queries)
				fmt.Printf("%-14s %10v %14s %16s\n", r.Protocol, sc != nil, r.SuccessRate, r.AvgDownloadRTTMs)
			}
		}
	default:
		fatal(fmt.Errorf("unknown extension %q", which))
	}
}

func trialNote(opts locaware.Options) {
	if opts.Trials > 1 {
		fmt.Printf("(cells are mean±95%%CI over %d trials)\n", opts.Trials)
	}
}

// mustTrials runs the replicated experiment for one cell; with -trials 1
// the estimates collapse to the single sequential run's exact values.
func mustTrials(o locaware.Options, p locaware.Protocol, warmup, queries int) *locaware.TrialsResult {
	r, err := locaware.RunTrials(o, p, warmup, queries)
	if err != nil {
		fatal(err)
	}
	return r
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

// Command benchmark is the repository's one benchmark: four workloads at
// the traffic the CLIs actually produce, every end-to-end metric of
// BENCHMARK.json from an untraced run (-trace 0), and the per-layer
// metrics from a separate traced run (-trace 1) that times the layers from
// outside — through sim.Engine.SetObserver and direct calls into their
// public functions. See README.md in this directory.
//
//	bash benchmark/run.sh --workload flood-2k --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	locaware "github.com/p2prepro/locaware"
)

// goldenPath is relative to the checkout root, where run.sh starts the
// benchmark; the golden table is owned by the repository's own tests.
const goldenPath = "testdata/golden_compare_200peers.txt"

// scratchDir is the only place the benchmark writes: run.sh's build
// directory at the checkout root.
const scratchDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: locaware-2k | flood-2k | locaware-20k | campaign-grid")
	seed := flag.Int64("seed", 1, "root seed; unit i of the ensemble runs under sim.TrialSeed(seed, i)")
	seconds := flag.Int("seconds", 15, "time budget that sizes the ensemble (fixed work, about this long on the reference machine)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// manifest says what produced a report.
type manifest struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Units      int    `json:"units"`
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Started    string `json:"started"`
}

func newManifest(w *workload, seed int64, seconds int, traced bool) manifest {
	m := manifest{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		GitRev: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", Started: time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.GitRev = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// preflight re-renders the repository's 200-peer golden Compare table, so
// "the simulator is right" stays owned by the repo's goldens rather than
// by a digest pinned inside the benchmark.
func preflight() (problem string, err error) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return "", fmt.Errorf("preflight: %w (run from the repository root)", err)
	}
	o := locaware.DefaultOptions()
	o.Seed = 1
	o.Peers = 200
	o.QueryRate = 0.01
	cmp, err := locaware.Compare(o, locaware.Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		return "", fmt.Errorf("preflight: %w", err)
	}
	got := "== fig3-search-traffic (messages/query)\n" +
		cmp.FigureTable(locaware.FigureSearchTraffic) +
		"== fig4-success-rate\n" +
		cmp.FigureTable(locaware.FigureSuccessRate)
	if got != string(want) {
		return "preflight: 200-peer Compare table differs from " + goldenPath, nil
	}
	return "", nil
}

// value is one metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full account of one run, printed on the line before the
// result. It claims no gain: it is the yardstick later changes name their
// metric and workload from.
type report struct {
	Manifest  manifest         `json:"manifest"`
	Claim     any              `json:"claim"`
	Correct   bool             `json:"correct"`
	FailShare float64          `json:"fail_share"`
	Problems  []string         `json:"problems"`
	SimDigest string           `json:"sim_digest"`
	Metrics   map[string]value `json:"metrics"`
	EndToEnd  *endToEnd        `json:"end_to_end,omitempty"`
	Layers    *layers          `json:"layers,omitempty"`
}

func run(w *workload, seed int64, seconds int, traced bool) error {
	rep := report{Manifest: newManifest(w, seed, seconds, traced)}
	problem, err := preflight()
	if err != nil {
		return err
	}
	if problem != "" {
		rep.Problems = append(rep.Problems, problem)
	}

	var attempted, failed int
	var defs []metricDef
	var values map[string]float64
	if traced {
		// Checkpoints go next to the build outputs, inside the checkout.
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return err
		}
		l, err := w.runTraced(seed, scratchDir)
		if err != nil {
			return err
		}
		rep.Layers, rep.SimDigest = l, l.SimDigest
		rep.Manifest.Units = len(l.Plain)
		rep.Problems = append(rep.Problems, l.Problems...)
		attempted, failed = tally(l.Plain)
		defs, values = perLayer, l.Values
	} else {
		e, err := w.runEndToEnd(seed, seconds)
		if err != nil {
			return err
		}
		rep.EndToEnd, rep.SimDigest = e, e.SimDigest
		rep.Manifest.Units = len(e.Units)
		rep.Problems = append(rep.Problems, e.Problems...)
		attempted, failed = tally(e.Units)
		defs = endToEndMetrics
		values = make(map[string]float64, len(e.Stats))
		for name, s := range e.Stats {
			values[name] = s.Median
		}
	}

	rep.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	rep.Correct = len(rep.Problems) == 0 && failed == 0
	rep.FailShare = float64(failed) / float64(attempted)

	for _, p := range rep.Problems {
		fmt.Println("PROBLEM:", p)
	}
	printTable(w, defs, rep)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(result{Correct: rep.Correct, Attempted: attempted, Failed: failed, Metrics: rep.Metrics})
}

// printTable lists every metric by name with its unit, for people.
func printTable(w *workload, defs []metricDef, rep report) {
	fmt.Printf("workload %s  seed %d  units %d  sim_digest %s\n", w.name, rep.Manifest.Seed, rep.Manifest.Units, rep.SimDigest)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if rep.EndToEnd != nil {
			if s, ok := rep.EndToEnd.Stats[d.Name]; ok {
				line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-36s %16.6g %-6s\n", "fail_share", rep.FailShare, "ratio")
}

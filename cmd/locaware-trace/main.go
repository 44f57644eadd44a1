// Command locaware-trace runs a small simulation with event tracing and
// prints the protocol's story: query submissions, forwarding decisions,
// storage/cache hits, reverse-path caching, downloads and Bloom gossip.
//
//	locaware-trace -protocol Locaware -peers 100 -queries 10
//	locaware-trace -protocol Locaware -query 3        # one query's lifecycle
//
// With -scenario, the run executes under a phased-dynamics timeline and
// phase-entry events appear inline with the query trace, so the log shows
// exactly which queries ran before and after each wave, crowd or outage:
//
//	locaware-trace -scenario churn-waves -queries 40
//	locaware-trace -scenario my.json -queries 40
//
// With -slowest (or -keep-failed / -min-hops), the run switches to the
// tail-sampling flight recorder: instead of the full event firehose it
// retains only the queries matching the policy, reconstructs each one's
// causal span tree and prints it as an indented timeline with per-hop
// propagation/processing attribution. -trace-out exports the retained
// trees as Chrome/Perfetto trace JSON (load at ui.perfetto.dev):
//
//	locaware-trace -slowest 3 -queries 200
//	locaware-trace -keep-failed -queries 200 -trace-out perfetto.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	var (
		protoName = flag.String("protocol", "Locaware", "protocol: Flooding|Dicas|Dicas-Keys|Locaware|Locaware-LR")
		peers     = flag.Int("peers", 100, "number of peers")
		warmup    = flag.Int("warmup", 0, "warmup queries before the traced phase")
		queries   = flag.Int("queries", 10, "traced queries")
		query     = flag.Uint64("query", 0, "print only this query id (0 = all)")
		maxEvents = flag.Int("max-events", 20000, "trace buffer capacity")
		gossip    = flag.Bool("gossip", false, "include Bloom gossip events")
		records   = flag.Bool("records", false, "print the per-query record table (full-fidelity RetainRecords mode)")
		scen      = flag.String("scenario", "", "run under a phased-dynamics scenario (built-in name or JSON spec path); phase entries print inline")
		seed      = flag.Int64("seed", 1, "random seed")

		slowest    = flag.Int("slowest", 0, "flight recorder: keep the N slowest queries and print their span trees")
		keepFailed = flag.Bool("keep-failed", false, "flight recorder: keep every failed query")
		minHops    = flag.Int("min-hops", 0, "flight recorder: keep queries reaching at least this forward depth")
		traceOut   = flag.String("trace-out", "", "write retained traces as Chrome/Perfetto trace JSON to this file")
	)
	flag.Parse()

	if *slowest > 0 || *keepFailed || *minHops > 0 {
		runRecorded(*protoName, *peers, *warmup, *queries, *seed, *scen,
			&locaware.FlightRecorder{SlowestN: *slowest, KeepFailed: *keepFailed, MinHops: *minHops}, *traceOut)
		return
	}
	if *traceOut != "" {
		fmt.Fprintln(os.Stderr, "locaware-trace: -trace-out needs a flight-recorder policy (-slowest, -keep-failed or -min-hops)")
		os.Exit(1)
	}

	opts := locaware.DefaultOptions()
	opts.Seed = *seed
	opts.Peers = *peers
	opts.QueryRate = 0.01 // accelerate so traces cover little virtual time
	// Tracing is the full-fidelity path: keep per-query records so the
	// event stream can be cross-checked against each query's final outcome.
	opts.RetainRecords = *records
	if *scen != "" {
		sc, err := locaware.LoadScenario(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-trace:", err)
			os.Exit(1)
		}
		opts.Scenario = sc
		fmt.Printf("scenario %q: phases %s\n", sc.Name(), strings.Join(sc.PhaseNames(), " → "))
	}

	res, events, err := locaware.RunTraced(opts, locaware.Protocol(*protoName), *warmup, *queries, *maxEvents)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locaware-trace:", err)
		os.Exit(1)
	}

	printed := 0
	for _, e := range events {
		// Phase entries annotate the timeline: always shown, even when the
		// trace is filtered down to a single query.
		if *query != 0 && e.Query != *query && e.Kind != "phase" {
			continue
		}
		if !*gossip && e.Kind == "gossip" {
			continue
		}
		fmt.Println(e)
		printed++
	}
	if *records {
		fmt.Printf("\n%-6s %-8s %-8s %10s %8s %8s %6s\n", "query", "success", "msgs", "rtt(ms)", "sameLoc", "cached", "hops")
		for _, r := range res.Records {
			// Record IDs restart at 1 for the measured phase while trace
			// events number queries network-wide (warmup included); offset
			// so -query selects the same query in both views.
			qid := r.ID + uint64(*warmup)
			if *query != 0 && qid != *query {
				continue
			}
			fmt.Printf("%-6d %-8v %-8d %10.1f %8v %8v %6d\n",
				qid, r.Success, r.Messages, r.DownloadRTTMs, r.SameLocality, r.FromCache, r.Hops)
		}
	}
	fmt.Printf("\n%d events shown; run summary: success=%.3f msgs/query=%.1f rtt=%.1fms\n",
		printed, res.SuccessRate, res.AvgMessagesPerQuery, res.AvgDownloadRTTMs)
	if res.TraceDropped > 0 {
		fmt.Printf("warning: %d events dropped; raise -max-events\n", res.TraceDropped)
	}
}

// runRecorded is the flight-recorder mode: run with tail sampling, print
// each retained query's span tree, and optionally export Perfetto JSON.
func runRecorded(protoName string, peers, warmup, queries int, seed int64, scen string, fr *locaware.FlightRecorder, traceOut string) {
	opts := locaware.DefaultOptions()
	opts.Seed = seed
	opts.Peers = peers
	opts.QueryRate = 0.01
	opts.FlightRecorder = fr
	if scen != "" {
		sc, err := locaware.LoadScenario(scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-trace:", err)
			os.Exit(1)
		}
		opts.Scenario = sc
		fmt.Printf("scenario %q: phases %s\n", sc.Name(), strings.Join(sc.PhaseNames(), " → "))
	}
	res, err := locaware.Run(opts, locaware.Protocol(protoName), warmup, queries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locaware-trace:", err)
		os.Exit(1)
	}
	for i, t := range res.Traces {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("kept=%s\n%s", t.Why, t.Render())
		if t.DroppedEvents > 0 {
			fmt.Printf("  warning: %d events dropped by the per-query buffer cap\n", t.DroppedEvents)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-trace:", err)
			os.Exit(1)
		}
		if err := res.WritePerfetto(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-trace: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace(s) to %s (load at ui.perfetto.dev or chrome://tracing)\n", len(res.Traces), traceOut)
	}
	fmt.Printf("\n%d traces retained; run summary: success=%.3f msgs/query=%.1f rtt=%.1fms\n",
		len(res.Traces), res.SuccessRate, res.AvgMessagesPerQuery, res.AvgDownloadRTTMs)
}

// Command locaware-trace runs a small simulation under the flight recorder
// and prints the protocol's story: query submissions, forwarding decisions,
// storage/cache hits, reverse-path caching, downloads and failures.
//
// Without a retention flag every query is kept (the recorder's slowest-N
// heap is sized to the whole run, so it never evicts) and the retained
// events print as one timeline, merged by virtual time:
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
// With -slowest (or -keep-failed / -min-hops), only the queries matching
// that policy are kept, and each one's causal span tree prints as an
// indented timeline with per-hop propagation/processing attribution:
//
//	locaware-trace -slowest 3 -queries 200
//	locaware-trace -keep-failed -queries 200 -trace-out perfetto.json
//
// -query, -records, -max-events, -scenario and -trace-out apply in both
// modes. -max-events caps each query's buffer; a query that overflows it
// keeps its first events and the run ends with a warning. -trace-out
// exports the retained trees as Chrome/Perfetto trace JSON (load at
// ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	var (
		protoName = flag.String("protocol", "Locaware", "protocol: Flooding|Dicas|Dicas-Keys|Locaware")
		peers     = flag.Int("peers", 100, "number of peers")
		warmup    = flag.Int("warmup", 0, "warmup queries before the traced phase")
		queries   = flag.Int("queries", 10, "traced queries")
		query     = flag.Uint64("query", 0, "print only this query id (0 = all)")
		maxEvents = flag.Int("max-events", 20000, "per-query event cap of the recorder's buffer")
		records   = flag.Bool("records", false, "print the per-query record table (full-fidelity RetainRecords mode)")
		scen      = flag.String("scenario", "", "run under a phased-dynamics scenario (built-in name or JSON spec path); phase entries print inline")
		seed      = flag.Int64("seed", 1, "random seed")

		slowest    = flag.Int("slowest", 0, "span trees: keep the N slowest queries")
		keepFailed = flag.Bool("keep-failed", false, "span trees: keep every failed query")
		minHops    = flag.Int("min-hops", 0, "span trees: keep queries reaching at least this forward depth")
		traceOut   = flag.String("trace-out", "", "write retained traces as Chrome/Perfetto trace JSON to this file")
	)
	flag.Parse()

	pol := locaware.FlightRecorder{SlowestN: *slowest, KeepFailed: *keepFailed, MinHops: *minHops, MaxEventsPerQuery: *maxEvents}
	trees := pol.SlowestN > 0 || pol.KeepFailed || pol.MinHops > 0
	if !trees {
		pol.SlowestN = *warmup + *queries
	}
	opts := locaware.DefaultOptions()
	opts.Seed = *seed
	opts.Peers = *peers
	opts.QueryRate = 0.01 // accelerate so traces cover little virtual time
	opts.FlightRecorder = &pol
	// Keep per-query records so the event stream can be cross-checked
	// against each query's final outcome.
	opts.RetainRecords = *records
	if *scen != "" {
		sc, err := locaware.LoadScenario(*scen)
		if err != nil {
			fail(err)
		}
		opts.Scenario = sc
		fmt.Printf("scenario %q: phases %s\n", sc.Name(), strings.Join(sc.PhaseNames(), " → "))
	}
	res, err := locaware.Run(opts, locaware.Protocol(*protoName), *warmup, *queries)
	if err != nil {
		fail(err)
	}

	var shown []*locaware.Trace
	dropped := 0
	for _, t := range res.Traces {
		if *query == 0 || t.Query == *query {
			shown = append(shown, t)
			dropped += t.DroppedEvents
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
	if *traceOut != "" {
		if err := writePerfetto(res, *traceOut); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %d trace(s) to %s (load at ui.perfetto.dev or chrome://tracing)\n", len(res.Traces), *traceOut)
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
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtSeconds < events[j].AtSeconds })
	for _, e := range events {
		fmt.Println(e)
	}
}

func writePerfetto(res *locaware.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WritePerfetto(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "locaware-trace:", err)
	os.Exit(1)
}

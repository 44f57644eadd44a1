// Command locaware-sim runs a single protocol simulation and prints its
// summary metrics.
//
// Usage:
//
//	locaware-sim -protocol Locaware -peers 1000 -warmup 1000 -queries 2000
//
// Protocols: Flooding, Dicas, Dicas-Keys, Locaware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	// Every world flag is a sweep parameter bound straight to its Options
	// field (Options.BindFlags), so the paper's defaults are
	// DefaultOptions' and nobody else's.
	opts := locaware.DefaultOptions()
	opts.BindFlags(flag.CommandLine)
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	var (
		protoName = flag.String("protocol", "Locaware", "protocol: Flooding|Dicas|Dicas-Keys|Locaware")
		warmup    = flag.Int("warmup", 1000, "warmup queries (records discarded)")
		queries   = flag.Int("queries", 2000, "measured queries")
		churn     = flag.Bool("churn", false, "enable peer churn (the built-in steady-churn scenario)")
		asJSON    = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()

	if *churn {
		sc, err := locaware.ScenarioByName("steady-churn")
		if err != nil {
			fmt.Fprintln(os.Stderr, "locaware-sim:", err)
			os.Exit(1)
		}
		opts.Scenario = sc
	}

	res, err := locaware.Run(opts, locaware.Protocol(*protoName), *warmup, *queries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locaware-sim:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "locaware-sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("protocol            %s\n", res.Protocol)
	fmt.Printf("peers               %d\n", opts.Peers)
	fmt.Printf("measured queries    %d (after %d warmup)\n", res.Queries, *warmup)
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
	fmt.Printf("cached filenames    %d (%.2f per peer)\n", res.CachedFilenames, float64(res.CachedFilenames)/float64(opts.Peers))
	fmt.Printf("provider entries    %d\n", res.CachedProviderEntries)
}

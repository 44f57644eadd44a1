// Command locaware-sim runs a single protocol simulation and prints its
// summary metrics.
//
// Usage:
//
//	locaware-sim -protocol Locaware -peers 1000 -warmup 1000 -queries 2000
//
// Protocols: Flooding, Dicas, Dicas-Keys, Locaware, Locaware-LR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	var (
		protoName = flag.String("protocol", "Locaware", "protocol: Flooding|Dicas|Dicas-Keys|Locaware|Locaware-LR")
		peers     = flag.Int("peers", 1000, "number of peers (paper: 1000)")
		degree    = flag.Float64("degree", 3, "average overlay degree (paper: 3)")
		landmarks = flag.Int("landmarks", 4, "number of landmarks (paper: 4)")
		files     = flag.Int("files", 3000, "catalogue size (paper: 3000)")
		ttl       = flag.Int("ttl", 7, "query TTL (paper: 7)")
		groups    = flag.Int("groups", 4, "Dicas group count M")
		cacheCap  = flag.Int("cache", 50, "response-index capacity in filenames (paper: 50)")
		bloomBits = flag.Int("bloombits", 1200, "Bloom filter size in bits (paper: 1200)")
		rate      = flag.Float64("rate", 0.00083, "queries/second/peer (paper: 0.00083)")
		zipf      = flag.Float64("zipf", 1.0, "Zipf popularity exponent")
		warmup    = flag.Int("warmup", 1000, "warmup queries (records discarded)")
		queries   = flag.Int("queries", 2000, "measured queries")
		seed      = flag.Int64("seed", 1, "random seed")
		churn     = flag.Bool("churn", false, "enable peer churn (the built-in steady-churn scenario)")
		asJSON    = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()

	opts := locaware.DefaultOptions()
	opts.Seed = *seed
	opts.Peers = *peers
	opts.AvgDegree = *degree
	opts.Landmarks = *landmarks
	opts.Files = *files
	opts.TTL = *ttl
	opts.Groups = *groups
	opts.CacheFilenames = *cacheCap
	opts.BloomBits = *bloomBits
	opts.QueryRate = *rate
	opts.ZipfS = *zipf
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
	fmt.Printf("peers               %d\n", *peers)
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
	fmt.Printf("cached filenames    %d (%.2f per peer)\n", res.CachedFilenames, float64(res.CachedFilenames)/float64(*peers))
	fmt.Printf("provider entries    %d\n", res.CachedProviderEntries)
}

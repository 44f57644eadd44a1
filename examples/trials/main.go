// Example trials: replicated, parallel experiments.
//
// The paper's figure points are averages over repeated PeerSim runs. This
// example reproduces that methodology with the trials API: every protocol
// cell is replicated over independently seeded worlds fanned out across
// the CPUs, and each metric arrives as mean±95%CI. It then uses the same
// machinery for a parameter sweep over overlay size — the kind of grid
// that is only practical once trials run in parallel.
//
// Determinism contract: same seed, same numbers, at any -style worker
// count; run it twice and the output is byte-identical.
package main

import (
	"fmt"
	"log"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	opts := locaware.DefaultOptions()
	opts.Peers = 150
	opts.QueryRate = 0.01 // accelerate virtual time for the example
	opts.Trials = 4       // replicated worlds per protocol cell
	opts.Workers = 0      // one simulation per CPU

	fmt.Println("== Replicated comparison (4 trials, paired worlds)")
	cmp, err := locaware.Compare(opts,
		[]locaware.Protocol{locaware.ProtocolFlooding, locaware.ProtocolDicas, locaware.ProtocolLocaware},
		100, 200, []int{100, 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %14s %16s %14s\n", "protocol", "success", "msgs/query", "rtt(ms)")
	for _, set := range cmp.Sets {
		fmt.Printf("%-12s %14s %16s %14s\n",
			set.Protocol, set.SuccessRate, set.AvgMessagesPerQuery, set.AvgDownloadRTTMs)
	}
	fmt.Println()
	fmt.Println(cmp.FigureTable(locaware.FigureSuccessRate))

	fmt.Println("== Overlay-size sweep (Locaware, 3 trials per point)")
	fmt.Printf("%-8s %14s %16s\n", "peers", "success", "msgs/query")
	for _, peers := range []int{100, 150, 200} {
		o := opts
		o.Peers = peers
		o.Trials = 3
		res, err := locaware.RunTrials(o, locaware.ProtocolLocaware, 100, 200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %14s %16s\n", peers, res.SuccessRate, res.AvgMessagesPerQuery)
	}
}

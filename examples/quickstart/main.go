// Quickstart: run the paper's four protocols over a small shared world and
// print the headline comparison.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	opts := locaware.DefaultOptions()
	opts.Peers = 400       // shrink from the paper's 1000 so this runs in seconds
	opts.QueryRate = 0.005 // accelerate arrivals (metrics are rate-independent)

	fmt.Println("locaware quickstart: 400 peers, 500 warmup + 1000 measured queries")
	cmp, err := locaware.Compare(opts, locaware.Baselines(), 500, 1000, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-12s %10s %12s %12s %10s\n", "protocol", "success", "msgs/query", "rtt (ms)", "same-loc")
	for _, set := range cmp.Sets {
		r := set.Trials[0] // one trial per protocol unless Options.Trials says otherwise
		fmt.Printf("%-12s %10.3f %12.1f %12.1f %10.3f\n",
			r.Protocol, r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs, r.SameLocalityRate)
	}

	h := cmp.Headlines()
	fmt.Println()
	fmt.Println("headline claims (paper: -14% distance, -98% traffic, +23%/+33% hits):")
	fmt.Printf("  download distance vs others:  %+.1f%%\n", 100*h.DistanceReduction)
	fmt.Printf("  search traffic vs flooding:   %+.1f%%\n", 100*h.TrafficReductionVsFlooding)
	fmt.Printf("  success rate vs Dicas:        %+.1f%%\n", 100*h.HitGainVsDicas)
	fmt.Printf("  success rate vs Dicas-Keys:   %+.1f%%\n", 100*h.HitGainVsDicasKeys)

	fmt.Println()
	fmt.Println("Figure 4 (success rate vs number of queries):")
	fmt.Print(cmp.FigureTable(locaware.FigureSuccessRate))
}

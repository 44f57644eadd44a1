// Churn: unstructured P2P peers are "highly dynamic and autonomous, failing
// or leaving the network at any moment" (§3.1). This example measures how
// peer churn degrades each caching protocol: cached indexes naming departed
// providers go stale and reverse paths break. Locaware stays the best
// caching protocol under churn (its success and distance leads persist),
// though both protocols lose a similar modest fraction of their hits.
// Churn is the built-in "steady-churn" scenario on Options.Scenario.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	base := locaware.DefaultOptions()
	base.Peers = 400
	base.QueryRate = 0.005

	fmt.Println("churn resilience: 400 peers, 500 warmup + 1500 measured queries")
	fmt.Println()
	fmt.Printf("%-12s %8s %12s %14s %12s\n", "protocol", "churn", "success", "rtt (ms)", "msgs/query")

	type cell struct {
		p     locaware.Protocol
		churn bool
	}
	results := map[cell]*locaware.Result{}
	steady, err := locaware.ScenarioByName("steady-churn")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []locaware.Protocol{locaware.ProtocolDicas, locaware.ProtocolLocaware} {
		for _, churn := range []bool{false, true} {
			opts := base
			if churn {
				opts.Scenario = steady
			}
			r, err := locaware.Run(opts, p, 500, 1500)
			if err != nil {
				log.Fatal(err)
			}
			results[cell{p, churn}] = r
			fmt.Printf("%-12s %8v %12.3f %14.1f %12.1f\n",
				r.Protocol, churn, r.SuccessRate, r.AvgDownloadRTTMs, r.AvgMessagesPerQuery)
		}
	}

	fmt.Println()
	dDicas := drop(results[cell{locaware.ProtocolDicas, false}], results[cell{locaware.ProtocolDicas, true}])
	dLoc := drop(results[cell{locaware.ProtocolLocaware, false}], results[cell{locaware.ProtocolLocaware, true}])
	fmt.Printf("success-rate change under churn: Dicas %+.1f%%, Locaware %+.1f%%\n", 100*dDicas, 100*dLoc)
	churnDicas := results[cell{locaware.ProtocolDicas, true}]
	churnLoc := results[cell{locaware.ProtocolLocaware, true}]
	fmt.Printf("under churn Locaware still leads Dicas: success %.3f vs %.3f, distance %.1f ms vs %.1f ms\n",
		churnLoc.SuccessRate, churnDicas.SuccessRate, churnLoc.AvgDownloadRTTMs, churnDicas.AvgDownloadRTTMs)
	fmt.Println("(stale providers are filtered at selection time; broken reverse paths cost both protocols alike)")
}

func drop(stable, churned *locaware.Result) float64 {
	if stable.SuccessRate == 0 {
		return 0
	}
	return (churned.SuccessRate - stable.SuccessRate) / stable.SuccessRate
}

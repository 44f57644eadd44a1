// Scenarios: the paper evaluates its protocols on one static workload,
// but motivates the setting with peers that are "highly dynamic and
// autonomous, failing or leaving the network at any moment" (§3.1). The
// scenario engine makes that world runnable as data: a run is a timeline
// of phases, each carrying typed dynamics events — churn waves, flash
// crowds, content injection/removal, regional degradation — and every
// metric is reported per phase by the streaming collector.
//
// This example drives two built-in scenarios (churn-waves and flashcrowd)
// through a paired Locaware-vs-Dicas comparison, then shows the no-code
// path: a custom scenario defined as JSON.
//
//	go run ./examples/scenarios
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

	for _, name := range []string{"churn-waves", "flashcrowd"} {
		sc, err := locaware.ScenarioByName(name)
		if err != nil {
			log.Fatal(err)
		}
		opts := base
		opts.Scenario = sc
		fmt.Printf("== scenario %q: %s\n", sc.Name(), sc.Description())
		cmp, err := locaware.Compare(opts,
			[]locaware.Protocol{locaware.ProtocolDicas, locaware.ProtocolLocaware},
			500, 2000, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, set := range cmp.Sets {
			r := set.Trials[0] // Options.Trials is 1: the set is this one run
			fmt.Printf("\n%s (whole run: success=%.3f rtt=%.1fms msgs/q=%.1f)\n",
				r.Protocol, r.SuccessRate, r.AvgDownloadRTTMs, r.AvgMessagesPerQuery)
			fmt.Print(locaware.PhaseTable(r.Phases))
		}
		fmt.Println()
	}

	// The no-code path: a custom scenario as JSON. A mass departure wave
	// hits while a flash crowd is still raging, then everything heals.
	custom, err := locaware.ParseScenario([]byte(`{
	  "name": "crowded-collapse",
	  "description": "flash crowd, then a 30% departure wave mid-crowd, then recovery",
	  "phases": [
	    {"name": "warm", "fraction": 1},
	    {"name": "crowd", "fraction": 1,
	     "events": [{"kind": "flash-crowd", "hot_files": 6, "rate_factor": 3, "zipf_s": 1.4}]},
	    {"name": "collapse", "fraction": 1,
	     "churn": {"leave_prob": 0.05, "join_prob": 0.05},
	     "events": [{"kind": "churn-wave", "frac": 0.3}]},
	    {"name": "recovery", "fraction": 1,
	     "events": [{"kind": "rejoin", "frac": 1}, {"kind": "calm"}]}
	  ]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== custom JSON scenario %q\n", custom.Name())
	base.Scenario = custom
	res, err := locaware.Run(base, locaware.ProtocolLocaware, 500, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(locaware.PhaseTable(res.Phases))
	fmt.Printf("\nwhole run: success=%.3f rtt=%.1fms msgs/q=%.1f (events=%d, %0.fs simulated)\n",
		res.SuccessRate, res.AvgDownloadRTTMs, res.AvgMessagesPerQuery, res.Events, res.SimulatedSeconds)
}

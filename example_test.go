package locaware_test

import (
	"fmt"
	"log"
	"reflect"

	locaware "github.com/p2prepro/locaware"
)

// ExampleRun simulates Locaware on a small overlay and reports whether the
// run produced the paper's qualitative behaviour.
func ExampleRun() {
	opts := locaware.DefaultOptions()
	opts.Peers = 150
	opts.QueryRate = 0.01 // accelerate virtual time for the example

	res, err := locaware.Run(opts, locaware.ProtocolLocaware, 100, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured queries:", res.Queries)
	fmt.Println("some queries succeed:", res.SuccessRate > 0)
	fmt.Println("selective search (well under flooding's hundreds of msgs):", res.AvgMessagesPerQuery < 100)
	// Output:
	// measured queries: 200
	// some queries succeed: true
	// selective search (well under flooding's hundreds of msgs): true
}

// ExampleRunTrials replicates a run over independently seeded worlds in
// parallel and reports cross-trial estimates. The worker count only changes
// wall-clock time: the aggregated numbers are identical at any Workers
// value.
func ExampleRunTrials() {
	opts := locaware.DefaultOptions()
	opts.Peers = 150
	opts.QueryRate = 0.01
	opts.Trials = 4  // four independent worlds
	opts.Workers = 0 // one simulation per CPU

	agg, err := locaware.RunTrials(opts, locaware.ProtocolLocaware, 100, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trials:", len(agg.Trials))
	fmt.Println("pooled trials per estimate:", agg.SuccessRate.N)
	fmt.Println("first trial matches locaware.Run:", func() bool {
		one, err := locaware.Run(opts, locaware.ProtocolLocaware, 100, 200)
		return err == nil && reflect.DeepEqual(one, agg.Trials[0])
	}())
	fmt.Println("independent trials spread:", agg.AvgMessagesPerQuery.StdDev > 0)
	// Output:
	// trials: 4
	// pooled trials per estimate: 4
	// first trial matches locaware.Run: true
	// independent trials spread: true
}

// ExampleCompare runs the paper's comparison on one shared world (set
// Options.Trials for replicated worlds and error bars) and checks the
// Figure 3 headline: caching protocols cost a small fraction of flooding's
// traffic.
func ExampleCompare() {
	opts := locaware.DefaultOptions()
	opts.Peers = 150
	opts.QueryRate = 0.01

	cmp, err := locaware.Compare(opts,
		[]locaware.Protocol{locaware.ProtocolFlooding, locaware.ProtocolLocaware},
		100, 200, nil)
	if err != nil {
		log.Fatal(err)
	}
	fl := cmp.Set(locaware.ProtocolFlooding)
	la := cmp.Set(locaware.ProtocolLocaware)
	fmt.Println("flooding finds more:", fl.SuccessRate.Mean >= la.SuccessRate.Mean)
	fmt.Println("locaware costs far less:", la.AvgMessagesPerQuery.Mean < fl.AvgMessagesPerQuery.Mean/5)
	// Output:
	// flooding finds more: true
	// locaware costs far less: true
}

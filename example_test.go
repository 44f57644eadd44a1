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

// Example_quickstart runs the paper's four protocols over one small shared
// world and prints the headline comparison against the paper's figures, and
// Figure 4 (success rate against the number of measured queries).
func Example_quickstart() {
	opts := locaware.DefaultOptions()
	opts.Peers = 400       // shrink from the paper's 1000 so this runs in a blink
	opts.QueryRate = 0.005 // accelerate arrivals (metrics are rate-independent)

	cmp, err := locaware.Compare(opts, locaware.Baselines(), 500, 1000, []int{250, 500, 750, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %8s %11s %9s %9s\n", "protocol", "success", "msgs/query", "rtt (ms)", "same-loc")
	for _, set := range cmp.Sets {
		r := set.Trials[0] // one trial per protocol unless Options.Trials says otherwise
		fmt.Printf("%-12s %8.3f %11.1f %9.1f %9.3f\n",
			r.Protocol, r.SuccessRate, r.AvgMessagesPerQuery, r.AvgDownloadRTTMs, r.SameLocalityRate)
	}
	h := cmp.Headlines()
	fmt.Println("headlines (paper: -14% distance, -98% traffic, +23%/+33% hits):")
	fmt.Printf("  download distance vs others: %+.1f%%\n", 100*h.DistanceReduction)
	fmt.Printf("  search traffic vs flooding:  %+.1f%%\n", 100*h.TrafficReductionVsFlooding)
	fmt.Printf("  success vs Dicas:            %+.1f%%\n", 100*h.HitGainVsDicas)
	fmt.Printf("  success vs Dicas-Keys:       %+.1f%%\n", 100*h.HitGainVsDicasKeys)
	fmt.Print(cmp.FigureTable(locaware.FigureSuccessRate))
	// Output:
	// protocol      success  msgs/query  rtt (ms)  same-loc
	// Flooding        0.957       528.4     178.4     0.162
	// Dicas           0.422        38.4     164.4     0.249
	// Dicas-Keys      0.429        36.7     165.8     0.226
	// Locaware        0.460        35.1     124.4     0.352
	// headlines (paper: -14% distance, -98% traffic, +23%/+33% hits):
	//   download distance vs others: -26.6%
	//   search traffic vs flooding:  -93.4%
	//   success vs Dicas:            +9.0%
	//   success vs Dicas-Keys:       +7.2%
	// queries            Flooding          Dicas     Dicas-Keys       Locaware
	// 250                   0.968          0.388          0.396          0.420
	// 500                   0.960          0.452          0.424          0.496
	// 750                   0.952          0.456          0.452          0.464
	// 1000                  0.948          0.392          0.444          0.460
}

// ExampleLocalities reproduces the §5.1 landmark analysis: the locality
// census of the paper's 1000 peers for 3, 4 and 5 landmarks (k! possible
// locIds), then what the landmark count does to Locaware's same-locality
// downloads. More landmarks scatter the peers into more, smaller
// localities, so a requester finds a provider sharing its locId less often.
func ExampleLocalities() {
	fmt.Printf("%-9s %8s %8s %10s %7s\n", "landmarks", "possible", "occupied", "mean peers", "largest")
	for _, k := range []int{3, 4, 5} {
		opts := locaware.DefaultOptions()
		opts.Landmarks = k
		rep, err := locaware.Localities(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9d %8d %8d %10.1f %7d\n",
			rep.Landmarks, rep.PossibleLocIDs, rep.OccupiedLocIDs, rep.MeanPeersPerLocality, rep.LargestLocality)
	}
	fmt.Printf("%-9s %8s %8s %10s\n", "landmarks", "success", "rtt (ms)", "same-loc")
	for _, k := range []int{3, 4, 5} {
		opts := locaware.DefaultOptions()
		opts.Peers = 400
		opts.QueryRate = 0.005
		opts.Landmarks = k
		r, err := locaware.Run(opts, locaware.ProtocolLocaware, 500, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9d %8.3f %8.1f %10.3f\n", k, r.SuccessRate, r.AvgDownloadRTTMs, r.SameLocalityRate)
	}
	// Output:
	// landmarks possible occupied mean peers largest
	// 3                6        6      166.7     230
	// 4               24       13       76.9     156
	// 5              120       29       34.5     117
	// landmarks  success rtt (ms)   same-loc
	// 3            0.460    125.4      0.465
	// 4            0.460    124.4      0.352
	// 5            0.460    123.7      0.257
}

// Example_flashcrowd drives the paper's motivating scenario: a few files
// become wildly popular (Zipf s = 1.4), and Locaware's use of natural
// replication turns the crowd itself into nearby supply. Download distance
// by query window (Figure 2's trend): every download adds a replica, so
// Flooding's distance falls too, but Locaware, which picks a provider in
// the requester's locality, stays well below it.
func Example_flashcrowd() {
	opts := locaware.DefaultOptions()
	opts.Peers = 400
	opts.QueryRate = 0.005
	opts.ZipfS = 1.4 // flash crowd: queries concentrate on a few files

	cmp, err := locaware.Compare(opts,
		[]locaware.Protocol{locaware.ProtocolFlooding, locaware.ProtocolLocaware},
		400, 2000, []int{500, 1000, 1500, 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cmp.FigureTable(locaware.FigureDownloadDistance))
	fl := cmp.Set(locaware.ProtocolFlooding).Trials[0]
	la := cmp.Set(locaware.ProtocolLocaware).Trials[0]
	fmt.Printf("same-locality downloads: flooding %.1f%%, locaware %.1f%%\n",
		100*fl.SameLocalityRate, 100*la.SameLocalityRate)
	fmt.Printf("search traffic: flooding %.0f msgs/query, locaware %.0f msgs/query\n",
		fl.AvgMessagesPerQuery, la.AvgMessagesPerQuery)
	fmt.Printf("provider entries cached by locaware: %d across %d filenames\n",
		la.CachedProviderEntries, la.CachedFilenames)
	// Output:
	// queries            Flooding       Locaware
	// 500                 150.218        106.694
	// 1000                127.692         86.806
	// 1500                116.521         89.755
	// 2000                103.911         82.179
	// same-locality downloads: flooding 41.0%, locaware 53.5%
	// search traffic: flooding 327 msgs/query, locaware 18 msgs/query
	// provider entries cached by locaware: 3072 across 849 filenames
}

// Example_trials replicates every protocol cell over independently seeded
// worlds, as the paper averages repeated PeerSim runs, so each metric
// arrives as mean±95% CI; then it sweeps the overlay size with the same
// machinery. Same seed, same numbers, at any Workers value.
func Example_trials() {
	opts := locaware.DefaultOptions()
	opts.Peers = 150
	opts.QueryRate = 0.01
	opts.Trials = 4  // replicated worlds per protocol cell
	opts.Workers = 0 // one simulation per CPU

	cmp, err := locaware.Compare(opts,
		[]locaware.Protocol{locaware.ProtocolFlooding, locaware.ProtocolDicas, locaware.ProtocolLocaware},
		100, 200, []int{100, 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %14s %14s %14s\n", "protocol", "success", "msgs/query", "rtt (ms)")
	for _, set := range cmp.Sets {
		fmt.Printf("%-10s %14s %14s %14s\n", set.Protocol, set.SuccessRate, set.AvgMessagesPerQuery, set.AvgDownloadRTTMs)
	}
	fmt.Print(cmp.FigureTable(locaware.FigureSuccessRate))

	fmt.Printf("%-10s %14s %14s\n", "peers", "success", "msgs/query")
	for _, peers := range []int{100, 150, 200} {
		o := opts
		o.Peers = peers
		o.Trials = 3
		res, err := locaware.RunTrials(o, locaware.ProtocolLocaware, 100, 200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %14s %14s\n", peers, res.SuccessRate, res.AvgMessagesPerQuery)
	}
	// Output:
	// protocol          success     msgs/query       rtt (ms)
	// Flooding      0.985±0.007  265.124±6.991 176.853±18.938
	// Dicas         0.397±0.045   29.765±2.549 167.113±14.041
	// Locaware      0.415±0.072   28.459±2.989 152.203±20.007
	// queries            Flooding          Dicas       Locaware
	// 100             0.975±0.019    0.378±0.057    0.393±0.093
	// 200             0.995±0.006    0.417±0.038    0.438±0.058
	// peers             success     msgs/query
	// 100           0.480±0.139   25.738±1.335
	// 150           0.397±0.089   27.080±1.806
	// 200           0.275±0.132   35.015±2.870
}

// Locality: reproduce the §5.1 landmark analysis. The paper implements
// physical locations with 4 landmarks (24 possible orderings / locIds) and
// argues that 5 landmarks (120 locIds) "scatter the peers into many
// different localities": with 1000 peers the average locality holds only ≈8
// peers, so a requestor rarely finds a provider sharing its locId.
//
// This example prints the locality census for 3, 4 and 5 landmarks over the
// paper's 1000 peers, then shows the end-to-end consequence on Locaware's
// same-locality download rate.
//
//	go run ./examples/locality
package main

import (
	"fmt"
	"log"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	fmt.Println("landmark / locality analysis over 1000 peers (paper §5.1)")
	fmt.Println()
	fmt.Printf("%-10s %10s %10s %14s %10s\n", "landmarks", "possible", "occupied", "mean peers", "largest")
	for _, k := range []int{3, 4, 5} {
		opts := locaware.DefaultOptions()
		opts.Landmarks = k
		rep, err := locaware.Localities(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %10d %10d %14.1f %10d\n",
			rep.Landmarks, rep.PossibleLocIDs, rep.OccupiedLocIDs,
			rep.MeanPeersPerLocality, rep.LargestLocality)
	}

	fmt.Println()
	fmt.Println("consequence for Locaware (400 peers, 500 warmup + 1000 measured queries):")
	fmt.Printf("%-10s %12s %14s %12s\n", "landmarks", "success", "rtt (ms)", "same-loc")
	for _, k := range []int{3, 4, 5} {
		opts := locaware.DefaultOptions()
		opts.Peers = 400
		opts.QueryRate = 0.005
		opts.Landmarks = k
		r, err := locaware.Run(opts, locaware.ProtocolLocaware, 500, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %12.3f %14.1f %12.3f\n", k, r.SuccessRate, r.AvgDownloadRTTMs, r.SameLocalityRate)
	}
	fmt.Println()
	fmt.Println("fewer landmarks -> larger localities -> same-locality providers easier to find;")
	fmt.Println("but too few landmarks blur distance (a 'locality' spans a bigger region).")
}

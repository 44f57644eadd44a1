// Flashcrowd: the motivating scenario of the paper's introduction — a few
// files become wildly popular, and Locaware's exploitation of natural
// replication ("a peer that requested and downloaded a file can provide its
// copy for subsequent queries") turns the crowd itself into nearby supply.
//
// The example drives an extremely skewed workload (Zipf s=1.4, so the top
// handful of files dominate) and reports, in query-count windows, how the
// download distance and same-locality rate evolve for Locaware versus
// Flooding: flooding stays flat, Locaware's distance falls as providers
// multiply across localities.
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	locaware "github.com/p2prepro/locaware"
)

func main() {
	opts := locaware.DefaultOptions()
	opts.Peers = 400
	opts.QueryRate = 0.005
	opts.ZipfS = 1.4 // flash crowd: queries concentrate on a few files

	fmt.Println("flash crowd: 400 peers, Zipf s=1.4, 2000 measured queries")
	cmp, err := locaware.Compare(opts,
		[]locaware.Protocol{locaware.ProtocolFlooding, locaware.ProtocolLocaware},
		400, 2000, []int{250, 500, 750, 1000, 1250, 1500, 1750, 2000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("download distance by window (Fig. 2's trend — Locaware improves, Flooding is flat):")
	fmt.Print(cmp.FigureTable(locaware.FigureDownloadDistance))

	fl := cmp.Set(locaware.ProtocolFlooding).Trials[0]
	la := cmp.Set(locaware.ProtocolLocaware).Trials[0]
	fmt.Println()
	fmt.Printf("same-locality downloads: flooding %.1f%%, locaware %.1f%%\n",
		100*fl.SameLocalityRate, 100*la.SameLocalityRate)
	fmt.Printf("search traffic:          flooding %.0f msgs/query, locaware %.0f msgs/query (%+.1f%%)\n",
		fl.AvgMessagesPerQuery, la.AvgMessagesPerQuery,
		100*(la.AvgMessagesPerQuery-fl.AvgMessagesPerQuery)/fl.AvgMessagesPerQuery)
	fmt.Printf("provider entries cached by locaware: %d across %d filenames\n",
		la.CachedProviderEntries, la.CachedFilenames)
}

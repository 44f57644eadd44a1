package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
)

// floodOneByOne runs Flooding at the given TTL on static random worlds with
// every link's RTT 80 ms and no jitter, each query submitted into a drained
// engine. want predicts a query's record from the world at submission, got
// reads the record the run made, and the two must agree.
func floodOneByOne(t *testing.T, ttl int, want func(net *Network, origin overlay.PeerID, q keywords.Query) string, got func(metrics.QueryRecord) string) {
	const peers = 120
	for seed := int64(1); seed <= 3; seed++ {
		net, files := randomNet(t, Flooding{}, seed, peers)
		net.Model = netmodel.NewModel(make([]netmodel.Point, peers), 1000, netmodel.LatencyConfig{MinRTT: 80, MaxRTT: 80}, 0)
		net.Config.TTL = ttl
		r := rand.New(rand.NewSource(seed))
		for i := range 60 {
			origin, q := overlay.PeerID(r.Intn(peers)), keywords.ExtractQuery(files[r.Intn(len(files))], r)
			w := want(net, origin, q)
			net.SubmitQuery(origin, q)
			if net.Engine.Run(0); got(net.Collector.Records()[i]) != w {
				t.Fatalf("seed %d query %d from peer %d: %s, want %s", seed, i+1, origin, got(net.Collector.Records()[i]), w)
			}
		}
	}
}

// holds reports whether peer p's storage answers q.
func holds(net *Network, p overlay.PeerID, q keywords.Query) bool {
	_, ok := net.storageMatch(p, q, querySig(q))
	return ok
}

// TestFloodingIsBreadthFirst is relation 24(b): under uniform latency a
// peer first hears a query along a fewest-hop path, so a Flooding query
// succeeds exactly when a holder lies within TTL hops at submission, and
// its Hops is the BFS distance over the Graph to the nearest holder.
func TestFloodingIsBreadthFirst(t *testing.T) {
	floodOneByOne(t, 7, func(net *Network, origin overlay.PeerID, q keywords.Query) string {
		dist := map[overlay.PeerID]int{origin: 0}
		for frontier := []overlay.PeerID{origin}; len(frontier) > 0; frontier = frontier[1:] {
			p := frontier[0]
			if holds(net, p, q) {
				return fmt.Sprintf("success at hop %d", dist[p])
			}
			for _, nb := range net.Graph.Neighbors(p) {
				if _, ok := dist[nb]; !ok && dist[p] < net.Config.TTL {
					dist[nb] = dist[p] + 1
					frontier = append(frontier, nb)
				}
			}
		}
		return "failure"
	}, func(rec metrics.QueryRecord) string {
		if !rec.Success {
			return "failure"
		}
		return fmt.Sprintf("success at hop %d", rec.Hops)
	})
}

// TestFloodingAtTTLOneCostsItsNeighbourhood is relation 24(d): at TTL 1 on
// a static world a query its own storage misses costs one message per
// online neighbour plus one response per neighbour holding a match; one its
// own storage answers costs none.
func TestFloodingAtTTLOneCostsItsNeighbourhood(t *testing.T) {
	floodOneByOne(t, 1, func(net *Network, origin overlay.PeerID, q keywords.Query) string {
		msgs := 0
		for _, nb := range net.Graph.Neighbors(origin) {
			if net.Graph.Online(nb) && !holds(net, origin, q) {
				msgs++
				if holds(net, nb, q) {
					msgs++
				}
			}
		}
		return fmt.Sprintf("%d messages", msgs)
	}, func(rec metrics.QueryRecord) string { return fmt.Sprintf("%d messages", rec.Messages) })
}

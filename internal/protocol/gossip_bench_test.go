package protocol

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// gossipWorld builds a small fully-wired Locaware network for gossip-plane
// measurements: a ring of peers so every node has neighbours to announce
// to.
func gossipWorld(peers int) *Network {
	pts := make([]netmodel.Point, peers)
	for i := range pts {
		pts[i] = netmodel.Point{X: float64(i) * 900 / float64(peers), Y: 100}
	}
	eng := sim.NewEngine()
	model := netmodel.NewModel(pts, 1000, netmodel.LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	lm := netmodel.FixedLandmarks([]netmodel.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 0, Y: 1000}, {X: 1000, Y: 1000}})
	loc := netmodel.NewLocator(model, lm)
	g := overlay.NewGraph(peers)
	for i := 0; i < peers; i++ {
		if err := g.AddLink(overlay.PeerID(i), overlay.PeerID((i+1)%peers)); err != nil {
			panic(err)
		}
	}
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = 0 // rounds driven by hand
	return NewNetwork(eng, g, model, loc, Locaware{}, cfg,
		rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
}

// toggled is the filename churnFilters caches and expires.
var toggled = fname("comes", "and", "goes")

// churnFilters changes the response index of every stride-th node (0: of
// none) so the next round rebuilds its filter and has a non-empty delta to
// announce there — the "response index changed since last announcement"
// condition. Even rounds cache toggled; odd rounds read it past its TTL, so
// its only provider expires and the filename is discarded.
func churnFilters(net *Network, round, stride int) {
	for i, n := range net.nodes {
		if stride == 0 || i%stride != 0 {
			continue
		}
		if round%2 == 0 {
			n.RI.Put(toggled, 0, 0, 0)
		} else {
			providers(n.RI, toggled, cache.DefaultConfig().TTL+1)
		}
	}
}

// gossipRound runs one full round with every node's response index
// changed: publish+announce at every node, then deliver the install events.
func gossipRound(net *Network, round int) {
	churnFilters(net, round, 1)
	net.gossipBlooms()
	net.Engine.Run(0)
}

// roundAllocs runs rounds [from, from+rounds), changing every stride-th
// node's response index before each, and returns the mean allocations of a
// round's publish, rebuild, announce, deliver and install, leaving out the
// response-index changes that feed it (a cached filename allocates its
// index entry).
func roundAllocs(net *Network, from, rounds, stride int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for r := from; r < from+rounds; r++ {
		churnFilters(net, r, stride)
		runtime.ReadMemStats(&before)
		net.gossipBlooms()
		net.Engine.Run(0)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs) / float64(rounds)
}

// TestGossipRoundZeroAlloc locks the gossip-plane satellite of the typed-
// event refactor: a steady-state gossip round — rebuild, diff, announce to
// every neighbour, deliver and install every update — allocates nothing.
// Before the refactor each round cloned a snapshot per node, allocated a
// fresh delta, and scheduled a closure per neighbour. Rounds where every
// node changed come first, then rounds where one node in three did: every
// node publishes into one network scratch, and an idle node between two
// changed ones must leave it as it found it.
func TestGossipRoundZeroAlloc(t *testing.T) {
	net := gossipWorld(64)
	// Warm pools: first rounds allocate per-link install filters, event
	// pool entries and scratch capacity.
	for r := 0; r < 4; r++ {
		gossipRound(net, r)
	}
	if n := roundAllocs(net, 4, 50, 1); n != 0 {
		t.Fatalf("gossip round allocates %g/round, want 0", n)
	}
	sent := net.ControlMessages()
	if n := roundAllocs(net, 54, 50, 3); n != 0 {
		t.Fatalf("gossip round with changed and idle peers mixed allocates %g/round, want 0", n)
	}
	if net.ControlMessages()-sent != 50*22*2 {
		t.Fatalf("mixed rounds sent %d control messages, want 22 changed peers × 2 neighbours × 50 rounds", net.ControlMessages()-sent)
	}
	if net.ControlMessages() == 0 {
		t.Fatal("no gossip traffic generated; the zero-alloc assertion is vacuous")
	}
}

// TestGossipRoundZeroAllocInstrumented re-proves the gossip-plane
// zero-alloc contract with full instrumentation attached — engine event
// accounting and protocol counters both active. The per-kind tally
// allocates only on first-seen event kinds, all of which the warm rounds
// touch, so the steady state stays at zero.
func TestGossipRoundZeroAllocInstrumented(t *testing.T) {
	net := gossipWorld(64)
	net.Engine.CountKinds()
	// The tally's event-name assertion fills its type cache on a random
	// ~1/1024 of misses; a hundred rounds (12 800 installs) warm it too.
	for r := 0; r < 100; r++ {
		gossipRound(net, r)
	}
	if n := roundAllocs(net, 100, 50, 1); n != 0 {
		t.Fatalf("instrumented gossip round allocates %g/round, want 0", n)
	}
	if net.Engine.EventsByKind()["bloom-install"] == 0 {
		t.Fatal("engine instrumentation counted no bloom-install events")
	}
}

// BenchmarkGossipRound measures the per-round cost of the gossip plane —
// publish, announce, deliver, install — at three traffic shapes: every
// filter changed (256 peers; no paper-rate run produces this, it bounds the
// per-announcement cost), none changed, and 1 % changed at 2000 peers, which
// is what ≈50 queries between two rounds of the locaware-2k overlay leave.
func BenchmarkGossipRound(b *testing.B) {
	for _, c := range []struct {
		name          string
		peers, stride int
	}{
		{"all-changed", 256, 1},
		{"idle", 2000, 0},
		{"sparse", 2000, 100},
	} {
		b.Run(c.name, func(b *testing.B) {
			net := gossipWorld(c.peers)
			for r := 0; r < 4; r++ {
				gossipRound(net, r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.stride != 0 { // the index changes are not the round's cost
					b.StopTimer()
					churnFilters(net, i+4, c.stride)
					b.StartTimer()
				}
				net.gossipBlooms()
				net.Engine.Run(0)
			}
		})
	}
}

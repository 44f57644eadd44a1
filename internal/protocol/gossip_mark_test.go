package protocol

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// handRound fires one gossip round by hand, delivers its installs and
// returns the control messages it sent.
func handRound(net *Network) uint64 {
	before := net.ControlMessages()
	net.gossipBlooms()
	net.Engine.Run(0)
	return net.ControlMessages() - before
}

// TestOfflinePeerAnnouncesOnRejoin: a peer whose filter changed and who
// then left announces nothing while offline — the change and the mark wait
// — and announces on the first round after rejoining, once.
func TestOfflinePeerAnnouncesOnRejoin(t *testing.T) {
	net := gossipWorld(6)
	n := net.Node(2)
	n.RI.Put(fname("held", "while", "away"), 4, 0, 0)
	if !n.cbf.Changed() {
		t.Fatal("caching a filename did not raise the filter's mark")
	}
	net.Graph.Leave(2)
	for r := 0; r < 3; r++ {
		if sent := handRound(net); sent != 0 {
			t.Fatalf("offline round %d sent %d control messages", r, sent)
		}
	}
	if !n.cbf.Changed() || n.PublishedBloom().PopCount() != 0 {
		t.Fatal("offline rounds consumed the pending change")
	}
	if err := net.Graph.Join(2); err != nil {
		t.Fatal(err)
	}
	for _, nb := range []overlay.PeerID{1, 3} {
		if err := net.Graph.AddLink(2, nb); err != nil {
			t.Fatal(err)
		}
	}
	if sent := handRound(net); sent != 2 {
		t.Fatalf("first round after rejoin sent %d control messages, want 2", sent)
	}
	if n.cbf.Changed() || !n.PublishedBloom().Equal(n.cbf.View()) {
		t.Fatal("rejoin round did not publish the held change")
	}
	for _, nb := range []overlay.PeerID{1, 3} {
		if got := net.Node(nb).NeighborBloom(2); got == nil || !got.Equal(n.PublishedBloom()) {
			t.Fatalf("neighbour %d did not install the rejoin announcement", nb)
		}
	}
	if sent := handRound(net); sent != 0 {
		t.Fatalf("second round after rejoin sent %d control messages, want 0", sent)
	}
}

// TestCancellingChangeSendsNothing: a filename cached and discarded between
// two rounds raises the mark, but the round finds the empty delta, sends
// nothing, bumps no announce generation and leaves the mark clear, so the
// rounds after it are back to one flag read.
func TestCancellingChangeSendsNothing(t *testing.T) {
	net := gossipWorld(6)
	n := net.Node(2)
	n.RI.Put(fname("stays"), 4, 0, 0)
	if sent := handRound(net); sent != 2 {
		t.Fatalf("setup round sent %d control messages, want 2", sent)
	}
	gens := n.announceGens

	goes := fname("comes", "and", "goes")
	n.RI.Put(goes, 5, 0, 0)
	if !n.cbf.Changed() {
		t.Fatal("caching a filename did not raise the mark")
	}
	// Read past its TTL, its only provider expires: the filename is
	// discarded again.
	if providers(n.RI, goes, cache.DefaultConfig().TTL+1) != nil || n.RI.Len() != 1 || !n.cbf.Changed() {
		t.Fatal("the mark must stay raised until a round looks")
	}
	if sent := handRound(net); sent != 0 {
		t.Fatalf("cancelled change sent %d control messages", sent)
	}
	if n.cbf.Changed() {
		t.Fatal("the round left the mark raised")
	}
	if n.announceGens != gens {
		t.Fatal("an empty delta consumed an announce buffer")
	}
	if d, err := n.PublishBloom(); err != nil || !d.Empty() {
		t.Fatalf("idle PublishBloom returned %v, %v", d, err)
	}
}

// TestLookupGuardMatchesIndex: behind the node's own filter, lookupRI
// returns exactly what RI.Lookup returns — no false negative, identical
// matches and provider lists — over randomized Put / TTL-expiry /
// single-filename lookup / capacity-eviction sequences, and leaves the
// index in the same state (the twin node takes the unguarded path on the
// same stream).
func TestLookupGuardMatchesIndex(t *testing.T) {
	cfg := cache.Config{MaxFilenames: 6, MaxProvidersPerFile: 3, TTL: 40 * sim.Second}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var guarded, plain Node
		initNode(&guarded, 0, 0, 0, cfg, true, 1200, 8)
		initNode(&plain, 0, 0, 0, cfg, false, 0, 0)
		pick := func(n int) []keywords.ID {
			out := make([]keywords.ID, n)
			for i := range out {
				out[i] = keywords.ID(r.Intn(12))
			}
			return out
		}
		var now sim.Time
		hits, guardedOut, evictions, expiries := 0, 0, 0, 0
		for op := 0; op < 4000; op++ {
			now += sim.Time(r.Intn(5)) * sim.Second
			entries, k := plain.RI.TotalProviderEntries(), r.Intn(10)
			switch {
			case k < 4:
				f := keywords.NewFilename(pick(3)...)
				p := overlay.PeerID(r.Intn(8))
				if plain.RI.Len() == cfg.MaxFilenames && !slices.Contains(plain.RI.Filenames(), f) {
					evictions++
				}
				guarded.RI.Put(f, p, 0, now)
				plain.RI.Put(f, p, 0, now)
			case k == 4:
				f := keywords.NewFilename(pick(3)...)
				providers(guarded.RI, f, now)
				providers(plain.RI, f, now)
			default:
				q := keywords.NewQuery(pick(1 + r.Intn(2))...)
				absent := false
				for i := range q.K() {
					absent = absent || !guarded.cbf.View().Test(q.KeywordAt(i).String())
				}
				got, want := guarded.lookupRI(q, guarded.bloomPositions(nil, q), now), plain.lookupRI(q, nil, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: lookupRI(%v) = %v, RI.Lookup = %v", seed, op, q, got, want)
				}
				if absent {
					guardedOut++
				}
				if len(want) != 0 {
					hits++
				}
			}
			if !reflect.DeepEqual(guarded.RI.Filenames(), plain.RI.Filenames()) ||
				guarded.RI.TotalProviderEntries() != plain.RI.TotalProviderEntries() {
				t.Fatalf("seed %d op %d: guarded and unguarded indexes diverged", seed, op)
			}
			if k >= 4 && plain.RI.TotalProviderEntries() < entries {
				expiries++ // a read dropped stale entries
			}
		}
		if hits < 100 || guardedOut < 100 {
			t.Fatalf("seed %d: %d hits, %d guarded-out lookups; the stream does not exercise both sides", seed, hits, guardedOut)
		}
		if evictions == 0 || expiries == 0 {
			t.Fatalf("seed %d: %d evictions, %d expiring reads; want both", seed, evictions, expiries)
		}
	}
}

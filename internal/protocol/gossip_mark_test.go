package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
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
	if !n.dirty {
		t.Fatal("caching a filename did not raise the filter's mark")
	}
	net.Graph.Leave(2)
	for r := 0; r < 3; r++ {
		if sent := handRound(net); sent != 0 {
			t.Fatalf("offline round %d sent %d control messages", r, sent)
		}
	}
	if !n.dirty || n.announced != nil {
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
	if n.dirty || !n.announced.Equal(n.bf) {
		t.Fatal("rejoin round did not publish the held change")
	}
	for _, nb := range []overlay.PeerID{1, 3} {
		if got := net.Node(nb).NeighborBloom(2); got == nil || !got.Equal(n.announced) {
			t.Fatalf("neighbour %d did not install the rejoin announcement", nb)
		}
	}
	if sent := handRound(net); sent != 0 {
		t.Fatalf("second round after rejoin sent %d control messages, want 0", sent)
	}
}

// TestCancellingChangeSendsNothing: a filename cached and discarded between
// two rounds raises the mark, but the round finds the empty delta, sends
// nothing, leaves the announcement as it was and the mark clear, so the
// rounds after it are back to one flag read. A peer that never announced
// allocates no announce filter for such a change.
func TestCancellingChangeSendsNothing(t *testing.T) {
	net := gossipWorld(6)
	n := net.Node(2)
	n.RI.Put(fname("stays"), 4, 0, 0)
	if sent := handRound(net); sent != 2 {
		t.Fatalf("setup round sent %d control messages, want 2", sent)
	}
	announced, sent := n.announced, n.announced.Clone()

	goes := fname("comes", "and", "goes")
	fresh := net.Node(4)
	for _, p := range []*Node{n, fresh} {
		p.RI.Put(goes, 5, 0, 0)
		if !p.dirty {
			t.Fatal("caching a filename did not raise the mark")
		}
		// Read past its TTL, its only provider expires: the filename is
		// discarded again.
		if providers(p.RI, goes, cache.DefaultConfig().TTL+1) != nil || !p.dirty {
			t.Fatal("the mark must stay raised until a round looks")
		}
	}
	if n.RI.Len() != 1 {
		t.Fatal("the expiry took the setup filename too")
	}
	if sent := handRound(net); sent != 0 {
		t.Fatalf("cancelled change sent %d control messages", sent)
	}
	if n.dirty || fresh.dirty {
		t.Fatal("the round left the mark raised")
	}
	if n.announced != announced || !n.announced.Equal(sent) {
		t.Fatal("an empty delta changed the announcement")
	}
	if fresh.announced != nil {
		t.Fatal("a peer that never announced allocated an announce filter")
	}
	if d := n.PublishBloom(); !d.Empty() {
		t.Fatalf("idle PublishBloom returned %v", d)
	}
}

// InstallSharing is the in-package half of TestInstallEventsOwnTheirFilters
// (gossip_equiv_test.go, which drives a core churn-waves run this package
// cannot import): for an event about to fire, it names the node state a
// bloom-install event's filter is shared with, or "" when the event owns
// its filter (or is no install).
func InstallSharing(net *Network, ev sim.Event) string {
	bi, ok := ev.(*bloomInstallEvent)
	switch {
	case !ok:
		return ""
	case bi.bf == nil:
		return "nothing: the install carries no filter"
	case bi.bf == net.nodes[bi.from].announced:
		return fmt.Sprintf("peer %d's announcement", bi.from)
	}
	for _, n := range net.nodes {
		if bi.bf == n.bf {
			return fmt.Sprintf("peer %d's own filter", n.ID)
		}
		for _, nf := range n.neighborBF {
			if bi.bf == nf.bf {
				return fmt.Sprintf("peer %d's copy of peer %d's filter", n.ID, nf.peer)
			}
		}
	}
	return ""
}

// exactFilter is the filter n's RI calls for: every keyword of every cached
// filename, added to a fresh filter by its spelling.
func exactFilter(n *Node) *bloom.Filter {
	f := bloom.New(n.bf.M(), n.bf.K())
	for name := range n.RI.Files() {
		for i := range name.K() {
			f.Add(name.KeywordAt(i).String())
		}
	}
	return f
}

// TestLookupGuardMatchesIndex: behind the node's own filter, lookupRI
// returns exactly what RI.Lookup returns — no false negative, identical
// matches and provider lists — over randomized Put / TTL-expiry /
// single-filename lookup / capacity-eviction / PublishBloom sequences, and
// leaves the index in the same state (the twin node takes the unguarded
// path on the same stream). Lookups run both against a filter a discarded
// filename left stale — a strict superset of the exact one, letting through
// queries the exact filter would stop — and against a freshly rebuilt one.
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
		staleLookups, staleLetThrough, exactLookups := 0, 0, 0
		for op := 0; op < 4000; op++ {
			now += sim.Time(r.Intn(5)) * sim.Second
			entries, k := plain.RI.TotalProviderEntries(), r.Intn(11)
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
			case k == 10:
				guarded.PublishBloom()
			default:
				q := keywords.NewQuery(pick(1 + r.Intn(2))...)
				kwIdx := guarded.bloomPositions(nil, q)
				exact := exactFilter(&guarded)
				extra, err := bloom.DiffFiltersInto(exact, guarded.bf, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range extra.Flipped {
					if !guarded.bf.TestIndexes([]uint32{i}) {
						t.Fatalf("seed %d op %d: the filter lost bit %d of a cached keyword", seed, op, i)
					}
				}
				if extra.Empty() {
					exactLookups++
				} else {
					staleLookups++
					if !exact.TestIndexes(kwIdx) && guarded.bf.TestIndexes(kwIdx) {
						staleLetThrough++
					}
				}
				got, want := guarded.lookupRI(q, kwIdx, now), plain.lookupRI(q, nil, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: lookupRI(%v) = %v, RI.Lookup = %v", seed, op, q, got, want)
				}
				if !guarded.bf.TestIndexes(kwIdx) {
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
			if k >= 4 && k < 10 && plain.RI.TotalProviderEntries() < entries {
				expiries++ // a read dropped stale entries
			}
		}
		if hits < 100 || guardedOut < 100 {
			t.Fatalf("seed %d: %d hits, %d guarded-out lookups; the stream does not exercise both sides", seed, hits, guardedOut)
		}
		if evictions == 0 || expiries == 0 {
			t.Fatalf("seed %d: %d evictions, %d expiring reads; want both", seed, evictions, expiries)
		}
		if staleLookups < 100 || staleLetThrough == 0 || exactLookups < 100 {
			t.Fatalf("seed %d: %d lookups on a stale filter (%d let through only by it), %d on an exact one; want both",
				seed, staleLookups, staleLetThrough, exactLookups)
		}
		t.Logf("seed %d: %d stale lookups (%d let through only by staleness), %d exact", seed, staleLookups, staleLetThrough, exactLookups)
	}
}

package protocol

import (
	"fmt"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
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
	if n.dirty || !n.announced.Equal(n.shared.scratch) { // the round's one rebuild
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
	announced, sent := n.announced, CloneFilter(net, n.announced)

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
	if d := n.PublishBloom(nil); !d.Empty() {
		t.Fatalf("idle PublishBloom returned %v", d)
	}
}

// CloneFilter returns an independent copy of f, a filter in net's geometry.
func CloneFilter(net *Network, f *bloom.Filter) *bloom.Filter {
	cp := bloom.New(net.Config.BloomBits, net.Config.BloomK)
	_ = cp.CopyFrom(f)
	return cp
}

// PublishedBloom returns the filter n last announced, nil before its first
// announcement: the in-package half of lastAnnounced (gossip_equiv_test.go).
func (n *Node) PublishedBloom() *bloom.Filter { return n.announced }

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
	case bi.bf == net.nodes[bi.from].shared.scratch:
		return "the network's rebuild filter"
	}
	for _, n := range net.nodes {
		for _, nf := range n.neighborBF {
			if bi.bf == nf.bf {
				return fmt.Sprintf("peer %d's copy of peer %d's filter", n.ID, nf.peer)
			}
		}
	}
	return ""
}

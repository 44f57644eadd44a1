package protocol_test

import (
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
)

// riView is the specification of the bit vector a peer gossips: every
// keyword of every filename in its response index, added by spelling to a
// fresh filter. It never looks at the node's own filter or its dirty mark,
// so it checks the insert-at-once, rebuild-on-publish filter from outside.
func riView(net *protocol.Network, n *protocol.Node) *bloom.Filter {
	f := bloom.New(net.Config.BloomBits, net.Config.BloomK)
	for _, name := range n.RI.Filenames() {
		for i := 0; i < name.K(); i++ {
			f.Add(name.KeywordAt(i).String())
		}
	}
	return f
}

// lastAnnounced is what n last announced, or an empty filter before its
// first announcement.
func lastAnnounced(net *protocol.Network, n *protocol.Node) *bloom.Filter {
	if f := n.PublishedBloom(); f != nil {
		return f
	}
	return bloom.New(net.Config.BloomBits, net.Config.BloomK)
}

// TestGossipRoundsMatchFullScanOracle replays every gossip round of a
// 300-peer Locaware run under the churn-waves scenario against riView:
// each round, in ascending peer id, every online peer diffs riView
// against what it last announced, announces if the diff is non-empty
// and is charged the delta's size per online neighbour. The set of
// announcing peers, every delta's flipped positions and the running
// ControlMessages/ControlBits must equal what the network did.
func TestGossipRoundsMatchFullScanOracle(t *testing.T) {
	spec, ok := scenario.Lookup("churn-waves")
	if !ok {
		t.Fatal("built-in churn-waves scenario missing")
	}
	const warmup, measured = 200, 4000
	cfg := core.DefaultConfig()
	cfg.Seed = 14
	cfg.NumPeers = 300
	cfg.Scenario = spec
	s := core.NewSimulation(cfg, protocol.Locaware{})
	net, g := s.Network, s.Network.Graph

	type announce struct {
		peer    overlay.PeerID
		flipped []uint32
	}
	announced := make([]*bloom.Filter, cfg.NumPeers) // oracle's copy of each peer's last announcement
	before := make([]*bloom.Filter, cfg.NumPeers)    // the network's, frozen just before the round
	for i, n := range net.Nodes() {
		announced[i] = lastAnnounced(net, n).Clone()
		before[i] = lastAnnounced(net, n).Clone()
	}
	var (
		want               []announce
		wantMsgs, wantBits uint64
		pending            bool
		rounds, announces  int
		heldOffline        int // offline peers sitting on an unannounced change
		rejoinAnnounces    int // …that announced in the first round back online
		held               = make([]bool, cfg.NumPeers)
	)
	check := func() {
		if !pending {
			return
		}
		pending = false
		var got []announce
		for i, n := range net.Nodes() {
			d, err := bloom.DiffFiltersInto(before[i], lastAnnounced(net, n), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Empty() {
				got = append(got, announce{overlay.PeerID(i), d.Flipped})
			}
		}
		if !slices.EqualFunc(got, want, func(a, b announce) bool {
			return a.peer == b.peer && slices.Equal(a.flipped, b.flipped)
		}) {
			t.Fatalf("round %d: announcements\n got %v\nwant %v", rounds, got, want)
		}
		if net.ControlMessages() != wantMsgs || net.ControlBits() != wantBits {
			t.Fatalf("round %d: control traffic %d msgs / %d bits, oracle %d / %d",
				rounds, net.ControlMessages(), net.ControlBits(), wantMsgs, wantBits)
		}
	}
	s.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		check() // the state a round left behind holds until the next event fires
		if sim.EventName(ev) != "gossip-round" {
			return
		}
		rounds++
		want = want[:0]
		for i, n := range net.Nodes() {
			pid := overlay.PeerID(i)
			_ = before[i].CopyFrom(lastAnnounced(net, n))
			view := riView(net, n)
			if !g.Online(pid) {
				if !held[i] && !view.Equal(announced[i]) {
					held[i] = true
					heldOffline++
				}
				continue
			}
			d, err := bloom.DiffFiltersInto(announced[i], view, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.Empty() {
				held[i] = false
				continue
			}
			if held[i] {
				held[i] = false
				rejoinAnnounces++
			}
			announces++
			announced[i] = view
			want = append(want, announce{pid, d.Flipped})
			for _, nb := range g.Neighbors(pid) {
				if g.Online(nb) {
					wantMsgs++
					wantBits += uint64(d.SizeBits())
				}
			}
		}
		pending = true
	})
	s.RunMeasured(warmup, measured)
	check()

	// The run must have exercised what it claims to cover.
	if rounds < 50 || announces < 200 {
		t.Fatalf("only %d rounds / %d announcements; the equivalence is near-vacuous", rounds, announces)
	}
	if announces > rounds*cfg.NumPeers/4 {
		t.Fatalf("%d announcements over %d rounds: not the sparse traffic the live view is for", announces, rounds)
	}
	if heldOffline == 0 || rejoinAnnounces == 0 {
		t.Fatalf("churn-waves left %d offline peers holding a change, %d announced on rejoin; want both > 0",
			heldOffline, rejoinAnnounces)
	}
	t.Logf("%d rounds, %d announcements, %d held while offline, %d announced on rejoin, %d control msgs",
		rounds, announces, heldOffline, rejoinAnnounces, wantMsgs)
}

// TestInstallEventsOwnTheirFilters: over a churn-waves Locaware run, every
// bloom-install event fires with a filter of its own — never the sender's
// announcement, any peer's filter or any neighbour copy — so a late
// delivery installs exactly what was sent and the install can be a swap.
func TestInstallEventsOwnTheirFilters(t *testing.T) {
	spec, ok := scenario.Lookup("churn-waves")
	if !ok {
		t.Fatal("built-in churn-waves scenario missing")
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 14
	cfg.NumPeers = 300
	cfg.Scenario = spec
	s := core.NewSimulation(cfg, protocol.Locaware{})
	installs := 0
	s.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		if sim.EventName(ev) != "bloom-install" {
			return
		}
		installs++
		if what := protocol.InstallSharing(s.Network, ev); what != "" {
			t.Fatalf("install %d shares its filter with %s", installs, what)
		}
	})
	s.RunMeasured(200, 4000)
	if installs < 1000 {
		t.Fatalf("only %d installs; the check is near-vacuous", installs)
	}
	t.Logf("%d installs, each with its own filter", installs)
}

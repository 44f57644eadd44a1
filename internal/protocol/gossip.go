package protocol

import (
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// gossipBlooms runs one gossip round: every online peer whose filter
// changed since its last announcement sends the update to each neighbour as
// a real message, delivered after link latency (§4.2: neighbours hold
// possibly stale copies). Traffic is charged per neighbour at the delta's
// encoded size (footnote 1) even though the delivered payload installs the
// full snapshot — the delta is what the wire would carry. An online peer's
// neighbours are online: the graph never lists an offline peer's links.
func (net *Network) gossipBlooms() {
	for _, n := range net.nodes {
		if !net.Graph.Online(n.ID) {
			continue
		}
		// The snapshot stays frozen two rounds; installs copy it on arrival.
		d, snapshot, snapGen := n.PublishBloom()
		if snapshot == nil {
			continue
		}
		from := n.ID
		sizeBits := d.SizeBits()
		for _, nb := range net.Graph.Neighbors(n.ID) {
			net.controlMessages++
			net.controlBits += uint64(sizeBits)
			net.send(from, nb, net.acquireBloomInstall(nb, from, snapshot, snapGen))
		}
	}
}

// bloomInstallEvent delivers one Bloom gossip announcement: dst installs
// (copies) from's announced filter after link latency.
//
// The event carries one of from's two alternating announce buffers, frozen
// until from's next-but-one gossip round — the install copies rather than
// retains it. gen is the buffer generation at announce time: if the buffer
// has been reused before the event lands (a gossip period shorter than
// twice the link delay — a misconfiguration, but a reachable one under
// extreme degrade-region scenarios), the install falls back to a copy of
// the sender's newest announce buffer and is counted. The fallback keeps
// gossip convergent — the neighbour receives a valid (fresher) snapshot
// instead of silently keeping round-r's content forever when later deltas
// are empty — without ever installing torn buffer contents.
type bloomInstallEvent struct {
	net  *Network
	dst  overlay.PeerID
	from overlay.PeerID
	snap *bloom.Filter
	gen  uint64
}

func (ev *bloomInstallEvent) EventName() string { return "bloom-install" }

func (ev *bloomInstallEvent) Fire(*sim.Engine) {
	net := ev.net
	snap := ev.snap
	if net.nodes[ev.from].announceGenOf(snap) != ev.gen {
		net.staleBloomFallbacks++
		snap = net.nodes[ev.from].PublishedBloom()
	}
	net.nodes[ev.dst].setNeighborBloom(ev.from, snap)
	ev.snap = nil
	net.biPool.Put(ev)
}

func (net *Network) acquireBloomInstall(dst, from overlay.PeerID, snap *bloom.Filter, gen uint64) *bloomInstallEvent {
	ev := net.biPool.Get()
	*ev = bloomInstallEvent{net: net, dst: dst, from: from, snap: snap, gen: gen}
	return ev
}

// gossipRoundEvent is the periodic gossip control: one instance per
// network, rescheduling itself after each round, allocation-free.
type gossipRoundEvent struct {
	net    *Network
	period sim.Time
}

func (ev *gossipRoundEvent) EventName() string { return "gossip-round" }

func (ev *gossipRoundEvent) Fire(e *sim.Engine) {
	ev.net.gossipBlooms()
	e.PostEvent(ev.period, ev)
}

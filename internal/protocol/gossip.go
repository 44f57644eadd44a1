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
		d := n.PublishBloom(net.flipBuf)
		if d.Empty() {
			continue // an empty delta must not reset the scratch
		}
		net.flipBuf = d.Flipped[:0]
		sizeBits := d.SizeBits()
		for _, nb := range net.Graph.Neighbors(n.ID) {
			net.controlMessages++
			net.controlBits += uint64(sizeBits)
			net.send(n.ID, nb, net.acquireBloomInstall(nb, n))
		}
	}
}

// bloomInstallEvent delivers one Bloom gossip announcement: after link
// latency dst installs bf, the sender's announcement as it was when sent.
// The event owns bf, so a late delivery installs exactly what was sent and
// the sender's next announcement cannot touch it. The install is a swap:
// bf becomes dst's copy of from's filter, and the copy it replaces rides
// back to the pool with the event, to carry a later send.
type bloomInstallEvent struct {
	net  *Network
	dst  overlay.PeerID
	from overlay.PeerID
	bf   *bloom.Filter // nil on a new event, or one whose filter a new link kept
}

func (ev *bloomInstallEvent) EventName() string { return "bloom-install" }

func (ev *bloomInstallEvent) Fire(*sim.Engine) {
	n := ev.net.nodes[ev.dst]
	if n.neighborBF == nil {
		n.neighborBF = sim.Carve(&ev.net.nbBlock, ev.net.Graph.Degree(ev.dst))
	}
	ev.bf = n.setNeighborBloom(ev.from, ev.bf)
	ev.net.biPool.Put(ev)
}

// acquireBloomInstall returns an install event carrying a copy of from's
// announcement to dst, carving a filter only for an event that has none.
func (net *Network) acquireBloomInstall(dst overlay.PeerID, from *Node) *bloomInstallEvent {
	ev := net.biPool.Get()
	if ev.bf == nil {
		ev.bf = from.shared.filters.carve()
	}
	_ = ev.bf.CopyFrom(from.announced) // cannot mismatch: one geometry per network
	ev.net, ev.dst, ev.from = net, dst, from.ID
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

package protocol

import (
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// This file defines the network's simulator events. Every hot-path action
// — query forwards, response hops, query finalisation, Bloom gossip
// installs, the gossip round timer — is a pooled concrete type here, so
// steady-state scheduling allocates nothing.
//
// Pooling follows sim.Pool's rule: the sender acquires an event, fills
// every field, posts it; the event Puts itself back when it fires. An event
// dropped by the engine's horizon is never fired and is reclaimed by the GC,
// exactly like a dropped message buffer.

// queryDeliverEvent delivers a forwarded query branch from src to dst.
type queryDeliverEvent struct {
	net *Network
	src overlay.PeerID
	dst overlay.PeerID
	msg *QueryMsg
}

func (ev *queryDeliverEvent) EventName() string { return "query-deliver" }

func (ev *queryDeliverEvent) Fire(*sim.Engine) {
	net := ev.net
	net.receiveQuery(ev.dst, ev.msg)
	net.releaseMsg(ev.msg)
	ev.msg = nil
	net.qdPool.Put(ev)
}

func (net *Network) acquireQueryDeliver(src, dst overlay.PeerID, msg *QueryMsg) *queryDeliverEvent {
	ev := net.qdPool.Get()
	ev.net, ev.src, ev.dst, ev.msg = net, src, dst, msg
	return ev
}

// responseDeliverEvent advances a response one hop to dst on the reverse
// path. Ownership of the ResponseMsg stays with the delivery chain:
// deliverResponse either completes and releases it or re-posts the next
// hop.
type responseDeliverEvent struct {
	net *Network
	src overlay.PeerID
	dst overlay.PeerID
	rsp *ResponseMsg
}

func (ev *responseDeliverEvent) EventName() string { return "response-deliver" }

func (ev *responseDeliverEvent) Fire(*sim.Engine) {
	net := ev.net
	net.deliverResponse(ev.dst, ev.rsp)
	ev.rsp = nil
	net.rdPool.Put(ev)
}

func (net *Network) acquireResponseDeliver(src, dst overlay.PeerID, rsp *ResponseMsg) *responseDeliverEvent {
	ev := net.rdPool.Get()
	ev.net, ev.src, ev.dst, ev.rsp = net, src, dst, rsp
	return ev
}

// finalizeEvent seals query id's record FinalizeAfter after submission.
type finalizeEvent struct {
	net *Network
	id  QueryID
}

func (ev *finalizeEvent) EventName() string { return "query-finalize" }

func (ev *finalizeEvent) Fire(*sim.Engine) {
	net := ev.net
	net.finalize(ev.id)
	net.finPool.Put(ev)
}

func (net *Network) acquireFinalize(id QueryID) *finalizeEvent {
	ev := net.finPool.Get()
	ev.net, ev.id = net, id
	return ev
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
// the sender's current published filter and is counted. The fallback keeps
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

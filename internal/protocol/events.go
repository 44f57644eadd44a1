package protocol

import (
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// This file and gossip.go define the network's simulator events. Every
// hot-path action — query forwards, response hops, query finalisation,
// Bloom gossip installs, the gossip round timer — is a pooled concrete
// type, so steady-state scheduling allocates nothing.
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
	net.msgPool.Put(ev.msg)
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

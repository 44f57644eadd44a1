package protocol

import "github.com/p2prepro/locaware/internal/sim"

// Three pooled things travel through the engine's queue on the hot path: a
// query branch and a response, each its own event (QueryMsg and ResponseMsg
// implement sim.Event, see message.go), and the two small events of this file
// and gossip.go — query finalisation and the Bloom gossip install. The
// gossip round timer is one unpooled value per network.
//
// Pooling follows sim.Pool's rule: the sender acquires a value, fills every
// field, posts it; it is Put back when it fires (a response, when its walk
// ends). An event dropped by the engine's horizon is never fired and is
// reclaimed by the GC.

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

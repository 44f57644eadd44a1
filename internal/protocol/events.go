package protocol

import (
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// This file defines the network's simulator events. Every hot-path action
// — query forwards, response hops, query finalisation, Bloom gossip
// installs, the gossip round timer — is a pooled concrete type here, so
// steady-state scheduling allocates nothing
// and every message-carrying event names its destination peer
// (sim.Destined), which is what the sharded runner routes on.
//
// Pooling follows sim.Pool's rule: the sending shard acquires an event,
// fills every field, posts it; the event Puts itself into the pool of the
// shard it fires on (its destination's shard), resolved through the
// engine's shard index. An event dropped by the engine's horizon is never
// fired and is reclaimed by the GC, exactly like a dropped message buffer.

// queryDeliverEvent delivers a forwarded query branch from src to dst.
type queryDeliverEvent struct {
	net *Network
	src overlay.PeerID
	dst overlay.PeerID
	msg *QueryMsg
}

func (ev *queryDeliverEvent) EventDst() int     { return int(ev.dst) }
func (ev *queryDeliverEvent) EventName() string { return "query-deliver" }

func (ev *queryDeliverEvent) Fire(e *sim.Engine) {
	net := ev.net
	st := net.stateOn(e)
	net.receiveQuery(e, st, ev.dst, ev.msg)
	st.releaseMsg(ev.msg)
	ev.msg = nil
	st.qdPool.Put(ev)
}

func (st *shardState) acquireQueryDeliver(net *Network, src, dst overlay.PeerID, msg *QueryMsg) *queryDeliverEvent {
	ev := st.qdPool.Get()
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

func (ev *responseDeliverEvent) EventDst() int     { return int(ev.dst) }
func (ev *responseDeliverEvent) EventName() string { return "response-deliver" }

func (ev *responseDeliverEvent) Fire(e *sim.Engine) {
	net := ev.net
	st := net.stateOn(e)
	net.deliverResponse(e, st, ev.dst, ev.rsp)
	ev.rsp = nil
	st.rdPool.Put(ev)
}

func (st *shardState) acquireResponseDeliver(net *Network, src, dst overlay.PeerID, rsp *ResponseMsg) *responseDeliverEvent {
	ev := st.rdPool.Get()
	ev.net, ev.src, ev.dst, ev.rsp = net, src, dst, rsp
	return ev
}

// finalizeEvent seals query id's record FinalizeAfter after submission. It
// is destined to the query's origin: under the sharded runner the seal
// fires on the shard that owns the requester — which is the shard holding
// the query's pendingQuery.
type finalizeEvent struct {
	net *Network
	id  QueryID
	dst overlay.PeerID
}

func (ev *finalizeEvent) EventDst() int     { return int(ev.dst) }
func (ev *finalizeEvent) EventName() string { return "query-finalize" }

func (ev *finalizeEvent) Fire(e *sim.Engine) {
	net := ev.net
	st := net.stateOn(e)
	net.finalize(st, ev.id)
	st.finPool.Put(ev)
}

func (st *shardState) acquireFinalize(net *Network, id QueryID, dst overlay.PeerID) *finalizeEvent {
	ev := st.finPool.Get()
	ev.net, ev.id, ev.dst = net, id, dst
	return ev
}

// querySubmitEvent carries a sharded submission from the control shard to
// the origin's shard, where the actual submission work (pending-query
// creation, finalisation scheduling, first fan-out) runs with that shard's
// state. The injection lead time equals the epoch lookahead, so posting it
// across the shard boundary is barrier-safe by construction.
type querySubmitEvent struct {
	net *Network
	dst overlay.PeerID
	id  QueryID
	q   keywords.Query
}

func (ev *querySubmitEvent) EventDst() int     { return int(ev.dst) }
func (ev *querySubmitEvent) EventName() string { return "query-submit" }

func (ev *querySubmitEvent) Fire(e *sim.Engine) {
	net := ev.net
	st := net.stateOn(e)
	net.runSubmit(e, st, ev.id, ev.dst, ev.q)
	ev.q = keywords.Query{}
	st.qsPool.Put(ev)
}

func (st *shardState) acquireSubmit(net *Network, id QueryID, dst overlay.PeerID, q keywords.Query) *querySubmitEvent {
	ev := st.qsPool.Get()
	ev.net, ev.dst, ev.id, ev.q = net, dst, id, q
	return ev
}

// bloomInstallEvent delivers one Bloom gossip announcement: dst installs
// (copies) from's announced filter after link latency.
//
// Intra-shard (and single-queue) installs carry one of from's two
// alternating announce buffers, frozen until from's next-but-one gossip
// round — the install copies rather than retains it. gen is the buffer
// generation at announce time: if the buffer has been reused before the
// event lands (a gossip period shorter than twice the link delay — a
// misconfiguration, but a reachable one under extreme degrade-region
// scenarios), the install falls back to a copy of the sender's current
// published filter and is counted. The fallback keeps gossip convergent —
// the neighbour receives a valid (fresher) snapshot instead of silently
// keeping round-r's content forever when later deltas are empty — without
// ever installing torn buffer contents.
//
// Cross-shard installs (owned=true) instead carry a pooled copy taken at
// announce time: the destination shard must not read the sender's live
// announce buffers mid-epoch. The copy is exact announce-time content, so
// neither the generation check nor the stale fallback applies; the filter
// returns to the firing shard's snapshot pool after the install.
type bloomInstallEvent struct {
	net   *Network
	dst   overlay.PeerID
	from  overlay.PeerID
	snap  *bloom.Filter
	gen   uint64
	owned bool
}

func (ev *bloomInstallEvent) EventDst() int     { return int(ev.dst) }
func (ev *bloomInstallEvent) EventName() string { return "bloom-install" }

func (ev *bloomInstallEvent) Fire(e *sim.Engine) {
	net := ev.net
	st := net.stateOn(e)
	snap := ev.snap
	if ev.owned {
		net.nodes[ev.dst].setNeighborBloom(ev.from, snap)
		st.snapPool.Put(snap)
	} else {
		if net.nodes[ev.from].announceGenOf(snap) != ev.gen {
			st.staleBloomFallbacks++
			snap = net.nodes[ev.from].PublishedBloom()
		}
		net.nodes[ev.dst].setNeighborBloom(ev.from, snap)
	}
	ev.snap = nil
	st.biPool.Put(ev)
}

func (st *shardState) acquireBloomInstall(net *Network, dst, from overlay.PeerID, snap *bloom.Filter, gen uint64) *bloomInstallEvent {
	ev := st.biPool.Get()
	*ev = bloomInstallEvent{net: net, dst: dst, from: from, snap: snap, gen: gen}
	return ev
}

// acquireBloomInstallOwned builds a cross-shard install carrying a pooled
// copy of src (the sender's announce-time snapshot).
func (st *shardState) acquireBloomInstallOwned(net *Network, dst, from overlay.PeerID, src *bloom.Filter) *bloomInstallEvent {
	snap := st.snapPool.Get()
	if snap.M() == 0 {
		// Fresh from the pool's block: give it the network's geometry.
		*snap = *bloom.New(src.M(), src.K())
	}
	// Geometry matches by construction: all filters in one network share
	// the configured bits/hashes.
	_ = snap.CopyFrom(src)
	if in := st.instr; in != nil {
		in.bloomCopies.Inc()
	}
	ev := st.acquireBloomInstall(net, dst, from, snap, 0)
	ev.owned = true
	return ev
}

// gossipRoundEvent is the periodic gossip control: one instance per shard,
// rescheduling itself on its own engine after each round, allocation-free.
// It is undestined on purpose: posted on its shard's engine at build time,
// it stays there, and its scan walks only that shard's peers.
type gossipRoundEvent struct {
	net    *Network
	st     *shardState
	period sim.Time
}

func (ev *gossipRoundEvent) EventName() string { return "gossip-round" }

func (ev *gossipRoundEvent) Fire(e *sim.Engine) {
	ev.net.gossipBlooms(e, ev.st)
	e.PostEvent(ev.period, ev)
}

package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// Config holds the protocol-plane parameters of §5.1.
type Config struct {
	// TTL bounds query propagation; paper: 7.
	TTL int
	// GroupCount is M, the number of Gid groups (Eq. 1).
	GroupCount int
	// Cache bounds each peer's response index.
	Cache cache.Config
	// BloomBits / BloomK size the keyword Bloom filter; paper: 1200 bits.
	// BloomK values above 16 are clamped (the filter computes its bit
	// positions in a fixed-size stack array; OptimalK never exceeds 16).
	BloomBits, BloomK int
	// BloomGossipPeriod is how often peers push BF updates to neighbours.
	BloomGossipPeriod sim.Time
	// FinalizeAfter is how long after submission a query's record is
	// sealed. It must exceed TTL × max one-way latency + the response trip.
	FinalizeAfter sim.Time
	// ProcessingDelay models per-hop forwarding cost added to link latency.
	ProcessingDelay sim.Time
	// FallbackFanout is how many neighbours a selective protocol falls
	// back to when no neighbour matches its routing predicate (the
	// highest-degree neighbour plus FallbackFanout-1 random others). 1
	// reproduces a pure "highly connected neighbour as a last resort"
	// walk; the default 2 keeps enough branching for the walk to cover a
	// useful fraction of the overlay within TTL.
	FallbackFanout int
	// Collector configures the measurement plane: the streaming checkpoint
	// grid for figure windows and whether full per-query records are
	// retained (see metrics.CollectorConfig). The zero value is a pure
	// streaming collector: O(1) state, scalar metrics only.
	Collector metrics.CollectorConfig
}

// DefaultConfig returns the paper's §5.1 parameters.
func DefaultConfig() Config {
	return Config{
		TTL:               7,
		GroupCount:        4,
		Cache:             cache.DefaultConfig(),
		BloomBits:         1200,
		BloomK:            6,
		BloomGossipPeriod: 30 * sim.Second,
		FinalizeAfter:     30 * sim.Second,
		ProcessingDelay:   sim.Millisecond,
		FallbackFanout:    2,
	}
}

// Behavior is a protocol's decision logic. One Network instance runs one
// behaviour; the figure harness runs a Network per curve.
type Behavior interface {
	// Name identifies the protocol in results.
	Name() string
	// UsesBloom reports whether nodes maintain and gossip Bloom filters.
	UsesBloom() bool
	// CacheConfig adapts the base cache bounds for this protocol (e.g. the
	// Dicas baselines keep a single provider per filename, §5.2: "the
	// response index in Locaware has for each file more possibilities of
	// providers than in Dicas").
	CacheConfig(base cache.Config) cache.Config
	// Forward selects the neighbours of n to forward q to; from is the
	// peer the query arrived from (the origin itself on first hop). The
	// returned slice is consumed before the next Forward call, so
	// implementations may return the network's target buffer
	// (Network.targetBuf()).
	Forward(net *Network, n *Node, q *QueryMsg, from overlay.PeerID) []overlay.PeerID
	// CacheResponse lets reverse-path node n cache the response per the
	// protocol's placement rule.
	CacheResponse(net *Network, n *Node, rsp *ResponseMsg)
	// OnAnswer runs at the answering node; Locaware inserts the requester
	// as a new provider here (§4.1.2).
	OnAnswer(net *Network, n *Node, q *QueryMsg, f keywords.Filename)
	// SelectProvider picks the download source among the response's
	// providers at the requester. The provs slice is scratch owned by the
	// network; implementations must not retain it.
	SelectProvider(net *Network, requester *Node, provs []cache.Provider) (cache.Provider, bool)
}

// pendingQuery is requester-side bookkeeping for one in-flight query.
// Instances are pooled: finalize returns them to the network's free list.
type pendingQuery struct {
	origin overlay.PeerID
	// col is the collector the query will finalise into; captured at
	// submission so a mid-run collector reset (warmup) does not leak
	// in-flight queries into the measured phase.
	col       *metrics.Collector
	messages  int
	answered  bool
	rtt       float64
	sameLoc   bool
	fromCache bool
	hops      int
	// visited lists the peers whose duplicate-suppression set holds this
	// query, so finalisation can erase the entries and keep per-node seen
	// state bounded by the in-flight query count instead of the run length.
	visited []overlay.PeerID
}

// ForwardStats counts routing decisions, for diagnosis and the routing
// ablations: how often each selection tier fired.
type ForwardStats struct {
	// BloomMatched counts forwards chosen by a Bloom-filter match.
	BloomMatched uint64
	// GidMatched counts forwards chosen by group-Id match.
	GidMatched uint64
	// Fallback counts last-resort forwards (highest-degree + random).
	Fallback uint64
	// FloodAll counts blind forwards (Flooding only).
	FloodAll uint64
}

// Network binds the substrates and one protocol behaviour into a runnable
// system. It is single-threaded: every event fires on the goroutine that
// runs Engine, so none of its state needs a lock.
type Network struct {
	Engine    *sim.Engine
	Graph     *overlay.Graph
	Model     *netmodel.Model
	Locator   *netmodel.Locator
	Behavior  Behavior
	Collector *metrics.Collector
	Config    Config

	// nodes is the flat per-peer state table, allocated in one block at
	// network build (the tendermint-simulator layout: contiguous state,
	// pointer-stable because the slice never grows).
	nodes   []*Node
	nodeArr []Node

	// rng drives protocol tie-breaking (stream "protocol").
	rng *rand.Rand

	// nextID assigns query ids.
	nextID QueryID
	// pending holds the in-flight queries. A query absent from it has been
	// finalised: its record is sealed and its seen entries erased.
	pending map[QueryID]*pendingQuery

	// Object pools, one per pooled type, all under sim.Pool's rule: the
	// sender acquires a value and its last user Puts it back — the events
	// of events.go Put themselves when they fire. Recycled events keep
	// steady-state scheduling allocation-free.
	pqPool   sim.Pool[pendingQuery]
	msgPool  sim.Pool[QueryMsg]
	respPool sim.Pool[ResponseMsg]
	qdPool   sim.Pool[queryDeliverEvent]
	rdPool   sim.Pool[responseDeliverEvent]
	finPool  sim.Pool[finalizeEvent]
	biPool   sim.Pool[bloomInstallEvent]

	// Reusable scratch buffers for the per-event selection loops. Each is
	// filled and fully consumed within one event delivery.
	fwdBuf  []overlay.PeerID
	fwdBuf2 []overlay.PeerID
	eligBuf []overlay.PeerID
	restBuf []overlay.PeerID
	fbBuf   []overlay.PeerID
	provBuf []cache.Provider

	// forwarding / control counters tally the run's traffic.
	forwarding          ForwardStats
	controlMessages     uint64
	controlBits         uint64
	staleBloomFallbacks uint64

	// instr, when non-nil, is the network's observability cell (see obs.go):
	// plain local counters folded into the shared registry at the end of the
	// run, so the hot path stays uncontended and alloc-free.
	instr *netInstr

	// tracer, when non-nil, receives a structured event for every
	// significant protocol action (set via SetTracer). Tracing a
	// paper-scale run is cheap with a bounded trace.Buffer or a sampling
	// trace.FlightRecorder.
	tracer trace.Tracer
	// traceWant is the tracer's kind-interest bitmask (trace.WantMask): emits
	// of kinds it discards — gossip under a flight recorder — are skipped
	// before the event (or its detail string) is built.
	traceWant uint32
	// detailBuf is the reusable scratch trace-detail strings are built in,
	// so a traced hot path pays one string copy per annotated event instead
	// of a fmt.Sprintf.
	detailBuf []byte
}

// traces reports whether kind k should be emitted.
func (net *Network) traces(k trace.Kind) bool {
	return net.traceWant&(1<<k) != 0
}

// NewNetwork assembles a network. gidRng draws each node's random Gid;
// protoRng drives protocol tie-breaking.
func NewNetwork(eng *sim.Engine, g *overlay.Graph, m *netmodel.Model, loc *netmodel.Locator,
	b Behavior, cfg Config, gidRng, protoRng *rand.Rand) *Network {
	if cfg.TTL <= 0 {
		cfg.TTL = 7
	}
	if cfg.GroupCount <= 0 {
		cfg.GroupCount = 4
	}
	if cfg.FinalizeAfter <= 0 {
		cfg.FinalizeAfter = 30 * sim.Second
	}
	if cfg.FallbackFanout <= 0 {
		cfg.FallbackFanout = 2
	}
	net := &Network{
		Engine:    eng,
		Graph:     g,
		Model:     m,
		Locator:   loc,
		Behavior:  b,
		Collector: metrics.NewCollectorWith(cfg.Collector),
		Config:    cfg,
		rng:       protoRng,
		pending:   make(map[QueryID]*pendingQuery),
		// Selection scratch: sized past the default MaxDegree (12) so the
		// per-event loops run allocation-free; pathological degrees merely
		// cost a transient grow.
		fwdBuf:  make([]overlay.PeerID, 0, 64),
		fwdBuf2: make([]overlay.PeerID, 0, 64),
		eligBuf: make([]overlay.PeerID, 0, 64),
		restBuf: make([]overlay.PeerID, 0, 64),
		fbBuf:   make([]overlay.PeerID, 0, 64),
		provBuf: make([]cache.Provider, 0, 16),
	}
	cacheCfg := b.CacheConfig(cfg.Cache)
	net.nodeArr = make([]Node, g.N())
	net.nodes = make([]*Node, g.N())
	for i := range net.nodeArr {
		n := &net.nodeArr[i]
		initNode(n, overlay.PeerID(i), gidRng.Intn(cfg.GroupCount),
			loc.LocID(i), cacheCfg, b.UsesBloom(), cfg.BloomBits, cfg.BloomK)
		net.nodes[i] = n
	}
	if b.UsesBloom() && cfg.BloomGossipPeriod > 0 && len(net.nodes) > 0 {
		net.Engine.PostEvent(cfg.BloomGossipPeriod, &gossipRoundEvent{net: net, period: cfg.BloomGossipPeriod})
	}
	return net
}

// SetTracer attaches (or, with nil, detaches) a tracer. Call before the
// run starts.
func (net *Network) SetTracer(tr trace.Tracer) {
	net.tracer, net.traceWant = tr, trace.WantMask(tr)
}

// TracerSink returns the tracer attached with SetTracer (nil when
// untraced).
func (net *Network) TracerSink() trace.Tracer { return net.tracer }

// TraceEnabled reports whether a tracer is attached; callers use it to
// skip building detail strings on untraced runs.
func (net *Network) TraceEnabled() bool { return net.tracer != nil }

// EmitControl emits a control-plane trace event (no peer, no query) at the
// current virtual time; scenario phase boundaries use it.
func (net *Network) EmitControl(k trace.Kind, detail string) {
	if !net.traces(k) {
		return
	}
	net.tracer.Emit(trace.Event{At: net.Engine.Now(), Kind: k, Peer: -1, From: -1, Detail: detail})
}

// emit sends a trace event when the tracer wants kind k; detail
// annotations that cost an allocation are built by the call sites behind
// their own traces check.
func (net *Network) emit(k trace.Kind, query QueryID, peer, from overlay.PeerID, detail string) {
	if !net.traces(k) {
		return
	}
	net.tracer.Emit(trace.Event{
		At:     net.Engine.Now(),
		Kind:   k,
		Query:  uint64(query),
		Peer:   int(peer),
		From:   int(from),
		Detail: detail,
	})
}

// Node returns peer p's protocol state.
func (net *Network) Node(p overlay.PeerID) *Node { return net.nodes[p] }

// Nodes returns the node table (shared slice; callers must not mutate).
func (net *Network) Nodes() []*Node { return net.nodes }

// ControlMessages returns the number of Bloom gossip messages sent.
func (net *Network) ControlMessages() uint64 { return net.controlMessages }

// ControlBits returns the total gossiped delta payload in bits.
func (net *Network) ControlBits() uint64 { return net.controlBits }

// StaleBloomFallbacks returns how many gossip installs outlived their
// announce buffer and fell back to the sender's current published
// snapshot (see bloomInstallEvent).
func (net *Network) StaleBloomFallbacks() uint64 { return net.staleBloomFallbacks }

// Forwarding returns the run's routing-tier tallies.
func (net *Network) Forwarding() ForwardStats { return net.forwarding }

// targetBuf returns the empty buffer Behavior.Forward implementations
// accumulate their target list into. The buffer is valid until the next
// Forward call; the network consumes it immediately.
func (net *Network) targetBuf() []overlay.PeerID { return net.fwdBuf[:0] }

// targetBuf2 is a second target buffer for behaviours that partition
// neighbours into two candidate lists (e.g. LocawareLR's same-locality
// split).
func (net *Network) targetBuf2() []overlay.PeerID { return net.fwdBuf2[:0] }

// acquirePending takes a pendingQuery from the pool.
func (net *Network) acquirePending(origin overlay.PeerID) *pendingQuery {
	pq := net.pqPool.Get()
	*pq = pendingQuery{origin: origin, col: net.Collector, visited: pq.visited[:0]}
	return pq
}

// releaseMsg returns a fully processed query message to the pool:
// whoever takes one from msgPool owns it until the delivery event releases
// it here (or never, for a dropped event, in which case the GC reclaims it).
// KwStrs is cleared rather than reused: responses created during processing
// may still alias the keyword-string slice (it is shared per query, not per
// branch).
func (net *Network) releaseMsg(m *QueryMsg) {
	m.Path = m.Path[:0]
	m.KwStrs = nil
	net.msgPool.Put(m)
}

// gossipBlooms runs one gossip round: every online peer whose filter
// changed since its last announcement sends the update to each neighbour as
// a real message, delivered after link latency (§4.2: neighbours hold
// possibly stale copies). Traffic is charged per neighbour at the delta's
// encoded size (footnote 1) even though the delivered payload installs the
// full snapshot — the delta is what the wire would carry.
func (net *Network) gossipBlooms() {
	for _, n := range net.nodes {
		if !net.Graph.Online(n.ID) {
			continue
		}
		d, err := n.PublishBloom()
		if err != nil || d.Empty() {
			continue
		}
		// The announced snapshot is a frozen per-node double buffer:
		// installs copy it on arrival (setNeighborBloom), and the buffer
		// next mutates two gossip periods from now — a wide margin over
		// any link latency — so the round is allocation-free with exact
		// announce-time semantics.
		snapshot, snapGen := n.announceSnapshot()
		from := n.ID
		sizeBits := d.SizeBits()
		for _, nb := range net.Graph.Neighbors(n.ID) {
			if !net.Graph.Online(nb) {
				continue
			}
			net.controlMessages++
			net.controlBits += uint64(sizeBits)
			if net.traces(trace.BloomGossip) {
				d := append(net.detailBuf[:0], "delta="...)
				d = strconv.AppendInt(d, int64(sizeBits), 10)
				d = append(d, "bits"...)
				net.detailBuf = d
				net.emit(trace.BloomGossip, 0, nb, from, string(d))
			}
			net.send(from, nb, net.acquireBloomInstall(nb, from, snapshot, snapGen))
		}
	}
}

// SubmitQuery injects a query at peer origin at the current virtual time:
// pending-query creation, finalisation scheduling, the origin's local
// storage and index checks, and the first forwarding fan-out. It returns
// the QueryID.
func (net *Network) SubmitQuery(origin overlay.PeerID, q keywords.Query) QueryID {
	net.nextID++
	id := net.nextID
	pq := net.acquirePending(origin)
	net.pending[id] = pq

	if in := net.instr; in != nil {
		in.submitted.Inc()
		in.pendingHW.Observe(uint64(len(net.pending)))
	}
	net.Engine.PostEvent(net.Config.FinalizeAfter, net.acquireFinalize(id))
	if net.traces(trace.QuerySubmit) {
		d := q.AppendString(net.detailBuf[:0])
		net.detailBuf = d
		net.emit(trace.QuerySubmit, id, origin, -1, string(d))
	}
	if !net.Graph.Online(origin) {
		return id
	}
	n := net.nodes[origin]
	net.markSeen(n, id, pq)
	// Local check first: the requester may already hold a matching file or
	// index.
	if f, ok := n.storageMatch(q); ok {
		pq.answered = true
		pq.rtt = 0
		pq.sameLoc = true
		pq.hops = 0
		if in := net.instr; in != nil {
			in.storageHits.Inc()
		}
		net.emit(trace.StorageHit, id, origin, -1, f.String())
		return id
	}
	if ms := n.lookupRI(q, net.Engine.Now()); len(ms) != 0 {
		if prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(ms[0].Providers)); ok {
			pq.fromCache = true
			if in := net.instr; in != nil {
				in.cacheHits.Inc()
			}
			net.emit(trace.CacheHit, id, origin, -1, ms[0].File.String())
			net.completeDownload(id, pq, n, ms[0].File, prov, 0)
			return id
		}
	}
	if in := net.instr; in != nil {
		in.cacheMisses.Inc()
	}
	msg := net.msgPool.Get()
	msg.ID = id
	msg.Q = q
	if net.Behavior.UsesBloom() {
		// Computed once per query and shared by every branch: Bloom routing
		// tests the same keyword strings at each hop.
		msg.KwStrs = q.Strings()
	}
	// Cached once per query: every Gid-routing hop consults the same value.
	msg.QGid = gidOfQuery(q, net.Config.GroupCount)
	msg.Origin = origin
	msg.OriginLoc = n.Loc
	msg.TTL = net.Config.TTL
	msg.Path = append(msg.Path[:0], origin)
	net.forward(n, msg, origin)
	net.releaseMsg(msg)
	return id
}

// markSeen adds the query to n's duplicate-suppression set and registers
// the entry on the pending query for erasure at finalisation.
func (net *Network) markSeen(n *Node, id QueryID, pq *pendingQuery) {
	n.seen[id] = true
	pq.visited = append(pq.visited, n.ID)
}

// forward runs the behaviour's neighbour selection and ships the query.
func (net *Network) forward(n *Node, q *QueryMsg, from overlay.PeerID) {
	if q.TTL <= 0 {
		return
	}
	targets := net.Behavior.Forward(net, n, q, from)
	for _, t := range targets {
		if t == n.ID || !net.Graph.Online(t) || !net.Graph.Linked(n.ID, t) {
			continue
		}
		branch := net.msgPool.Get()
		branch.ID = q.ID
		branch.Q = q.Q
		branch.KwStrs = q.KwStrs
		branch.QGid = q.QGid
		branch.Origin = q.Origin
		branch.OriginLoc = q.OriginLoc
		branch.TTL = q.TTL - 1
		branch.Path = append(append(branch.Path[:0], q.Path...), t)
		net.send(n.ID, t, net.acquireQueryDeliver(n.ID, t, branch))
		net.countMessage(q.ID)
		net.emit(trace.QueryForward, q.ID, t, n.ID, "")
	}
}

// send schedules delivery of a typed message event over link a->b with the
// physical one-way latency plus processing delay.
func (net *Network) send(a, b overlay.PeerID, ev sim.Event) {
	delay := sim.FromMillis(net.Model.OneWay(int(a), int(b))) + net.Config.ProcessingDelay
	net.Engine.PostEvent(delay, ev)
}

// countMessage attributes one overlay message to query id; finalised
// queries stop counting.
func (net *Network) countMessage(id QueryID) {
	if pq, ok := net.pending[id]; ok {
		pq.messages++
	}
}

// receiveQuery processes an arriving query at peer p. The caller retains
// ownership of q (it is released to the pool after this returns), so any
// state that outlives the call — notably response reverse paths — is
// copied, never aliased.
func (net *Network) receiveQuery(p overlay.PeerID, q *QueryMsg) {
	if !net.Graph.Online(p) {
		return
	}
	pq := net.pending[q.ID]
	if pq == nil {
		// The query was already finalised: its seen entries are erased and
		// its record sealed, so processing a straggler would mutate caches
		// the sealed record never saw. Under the documented FinalizeAfter
		// contract (longer than any in-flight message) this cannot happen;
		// with a misconfigured shorter deadline, dropping here keeps the run
		// consistent and the seen sets bounded.
		return
	}
	n := net.nodes[p]
	if n.seen[q.ID] {
		net.emit(trace.QueryDuplicate, q.ID, p, -1, "")
		return // duplicate: already counted at send time
	}
	net.markSeen(n, q.ID, pq)

	// Storage hit?
	if f, ok := n.storageMatch(q.Q); ok {
		if in := net.instr; in != nil {
			in.storageHits.Inc()
		}
		net.emit(trace.StorageHit, q.ID, p, -1, f.String())
		rsp := net.respPool.Get()
		rsp.ID = q.ID
		rsp.File = f
		rsp.Providers = append(rsp.Providers[:0], cache.Provider{Peer: p, LocID: n.Loc, LastSeen: net.Engine.Now()})
		rsp.QueryKws = q.Q
		rsp.Origin = q.Origin
		rsp.OriginLoc = q.OriginLoc
		rsp.Path = append(rsp.Path[:0], q.Path[:len(q.Path)-1]...)
		rsp.HitHops = len(q.Path) - 1
		rsp.FromStorage = true
		net.Behavior.OnAnswer(net, n, q, f)
		net.sendResponse(p, rsp)
		return
	}
	// Response-index hit?
	if ms := n.lookupRI(q.Q, net.Engine.Now()); len(ms) != 0 {
		m := net.selectIndexMatch(ms, q)
		if in := net.instr; in != nil {
			in.cacheHits.Inc()
		}
		net.emit(trace.CacheHit, q.ID, p, -1, m.File.String())
		rsp := net.respPool.Get()
		rsp.ID = q.ID
		rsp.File = m.File
		rsp.Providers = net.orderProvidersForOrigin(rsp.Providers[:0], m.Providers, q.OriginLoc)
		rsp.QueryKws = q.Q
		rsp.Origin = q.Origin
		rsp.OriginLoc = q.OriginLoc
		rsp.Path = append(rsp.Path[:0], q.Path[:len(q.Path)-1]...)
		rsp.HitHops = len(q.Path) - 1
		rsp.FromStorage = false
		net.Behavior.OnAnswer(net, n, q, m.File)
		net.sendResponse(p, rsp)
		return
	}
	if in := net.instr; in != nil {
		in.cacheMisses.Inc()
	}
	net.forward(n, q, q.Path[len(q.Path)-2])
}

// releaseResponse returns a response to the pool once it completes,
// is dropped by churn, or is superseded.
func (net *Network) releaseResponse(rsp *ResponseMsg) {
	rsp.Providers = rsp.Providers[:0]
	rsp.Path = rsp.Path[:0]
	rsp.QueryKws = keywords.Query{}
	net.respPool.Put(rsp)
}

// selectIndexMatch picks among multiple matching cached filenames: prefer
// the one with a provider in the origin's locality, then the one with most
// providers.
func (net *Network) selectIndexMatch(ms []cache.Match, q *QueryMsg) cache.Match {
	best := ms[0]
	bestScore := -1
	for _, m := range ms {
		score := len(m.Providers)
		for _, pr := range m.Providers {
			if pr.LocID == q.OriginLoc {
				score += 1000
				break
			}
		}
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// orderProvidersForOrigin appends ps to dst so providers matching the
// origin's locality come first (the §4.1.2 answer-construction rule: the
// response contains the entry corresponding to the originator's locId plus
// other providers as alternatives).
func (net *Network) orderProvidersForOrigin(dst []cache.Provider, ps []cache.Provider, origin netmodel.LocID) []cache.Provider {
	for _, p := range ps {
		if p.LocID == origin {
			dst = append(dst, p)
		}
	}
	for _, p := range ps {
		if p.LocID != origin {
			dst = append(dst, p)
		}
	}
	return dst
}

// sendResponse walks the response one hop back along the reverse path,
// letting each traversed node apply the protocol's caching rule, and
// completes the query at the origin. The response is mutated in place as it
// walks: exactly one scheduled event owns it at any instant.
func (net *Network) sendResponse(from overlay.PeerID, rsp *ResponseMsg) {
	if len(rsp.Path) == 0 {
		// The answering node is the origin's neighbourless case; deliver
		// locally (should not happen: origin handles local hits).
		net.deliverResponse(rsp.Origin, rsp)
		return
	}
	next := rsp.Path[len(rsp.Path)-1]
	rsp.Path = rsp.Path[:len(rsp.Path)-1]
	net.countMessage(rsp.ID)
	net.emit(trace.ResponseHop, rsp.ID, next, from, "")
	net.send(from, next, net.acquireResponseDeliver(from, next, rsp))
}

// deliverResponse processes the response at peer p: caching, then either
// completion (p is the origin) or the next reverse hop.
func (net *Network) deliverResponse(p overlay.PeerID, rsp *ResponseMsg) {
	if !net.Graph.Online(p) {
		net.releaseResponse(rsp)
		return // reverse path broken by churn; response is lost
	}
	n := net.nodes[p]
	before := n.RI.Inserts() + n.RI.Refreshes()
	net.Behavior.CacheResponse(net, n, rsp)
	if n.RI.Inserts()+n.RI.Refreshes() != before {
		net.emit(trace.ResponseCached, rsp.ID, p, -1, rsp.File.String())
	}
	if p == rsp.Origin {
		net.completeQuery(n, rsp)
		net.releaseResponse(rsp)
		return
	}
	net.sendResponse(p, rsp)
}

// completeQuery runs requester-side provider selection and download
// accounting for the first arriving response; later responses are ignored.
func (net *Network) completeQuery(n *Node, rsp *ResponseMsg) {
	pq, ok := net.pending[rsp.ID]
	if !ok || pq.answered {
		return
	}
	prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(rsp.Providers))
	if !ok {
		return // all advertised providers are gone; await another response
	}
	pq.fromCache = !rsp.FromStorage
	net.completeDownload(rsp.ID, pq, n, rsp.File, prov, rsp.HitHops)
}

// completeDownload finalises the download bookkeeping: distance metric and
// natural replication (the requester becomes a provider, §3.1).
func (net *Network) completeDownload(id QueryID, pq *pendingQuery, n *Node, f keywords.Filename, prov cache.Provider, hops int) {
	pq.answered = true
	pq.rtt = net.Model.RTT(int(n.ID), int(prov.Peer))
	pq.sameLoc = prov.LocID == n.Loc
	pq.hops = hops
	n.AddFile(f)
	if net.tracer != nil {
		d := append(net.detailBuf[:0], f.String()...)
		d = append(d, " rtt="...)
		d = strconv.AppendFloat(d, pq.rtt, 'f', 1, 64)
		d = append(d, "ms sameLoc="...)
		d = strconv.AppendBool(d, pq.sameLoc)
		net.detailBuf = d
		net.emit(trace.DownloadComplete, id, n.ID, prov.Peer, string(d))
	}
}

// liveProviders filters out offline providers (stale indexes under churn)
// into the provider scratch buffer, consumed synchronously by
// SelectProvider.
func (net *Network) liveProviders(ps []cache.Provider) []cache.Provider {
	out := net.provBuf[:0]
	for _, p := range ps {
		if net.Graph.Online(p.Peer) {
			out = append(out, p)
		}
	}
	net.provBuf = out[:0]
	return out
}

// queryRecord builds the metrics record for a resolved pending query.
func queryRecord(pq *pendingQuery) metrics.QueryRecord {
	return metrics.QueryRecord{
		Messages:     pq.messages,
		Success:      pq.answered,
		DownloadRTT:  pq.rtt,
		SameLocality: pq.sameLoc,
		FromCache:    pq.fromCache,
		Hops:         pq.hops,
	}
}

// finalize resolves query id: it seals the record, erases the query's
// duplicate-suppression entries and recycles the bookkeeping. A query that
// is no longer pending was already finalised.
func (net *Network) finalize(id QueryID) {
	pq, ok := net.pending[id]
	if !ok {
		return
	}
	if in := net.instr; in != nil {
		in.finalized.Inc()
	}
	if !pq.answered {
		net.emit(trace.QueryFailed, id, pq.origin, -1, "")
	}
	net.emit(trace.QueryFinalize, id, pq.origin, -1, "")
	pq.col.Record(queryRecord(pq))
	for _, p := range pq.visited {
		delete(net.nodes[p].seen, id)
	}
	delete(net.pending, id)
	net.pqPool.Put(pq)
}

// FlushPending finalises all still-pending queries immediately (used at
// the end of a bounded run), in ascending QueryID order — so trace output
// and retained records at an early cutoff are identical run to run instead
// of following Go's randomised map iteration.
func (net *Network) FlushPending() {
	if len(net.pending) == 0 {
		return
	}
	ids := make([]QueryID, 0, len(net.pending))
	for id := range net.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		net.finalize(id)
	}
}

// ResetCollector swaps in a fresh metrics collector (same configuration)
// and returns the old one. Queries already in flight keep finalising into
// the collector that was active when they were submitted, so a warmup phase
// cannot contaminate the measured phase.
func (net *Network) ResetCollector() *metrics.Collector {
	old := net.Collector
	net.Collector = metrics.NewCollectorWith(net.Config.Collector)
	return old
}

// fallbackNeighbors implements the last-resort forwarding set shared by the
// selective protocols: the highest-degree eligible neighbour (§4.2's
// "highly connected neighbor") plus up to FallbackFanout-1 random other
// eligible neighbours to keep the walk from degenerating into a single
// path.
func (net *Network) fallbackNeighbors(n *Node, q *QueryMsg, from overlay.PeerID) []overlay.PeerID {
	best, ok := net.highestDegreeNeighbor(n, q, from)
	if !ok {
		return nil
	}
	eligible := net.eligBuf[:0]
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) || !net.Graph.Online(nb) {
			continue
		}
		eligible = append(eligible, nb)
	}
	net.eligBuf = eligible[:0]
	out := append(net.fbBuf[:0], best)
	net.fbBuf = out[:0]
	if net.Config.FallbackFanout <= 1 || len(eligible) == 1 {
		net.forwarding.Fallback++
		return out
	}
	// Random extras among the remaining eligible neighbours.
	rest := net.restBuf[:0]
	for _, nb := range eligible {
		if nb != best {
			rest = append(rest, nb)
		}
	}
	net.restBuf = rest[:0]
	net.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	extra := net.Config.FallbackFanout - 1
	if extra > len(rest) {
		extra = len(rest)
	}
	out = append(out, rest[:extra]...)
	net.forwarding.Fallback += uint64(len(out))
	return out
}

// highestDegreeNeighbor returns n's highest-degree neighbour not on the
// query path and not the sender — the "highly connected neighbor as a last
// resort" rule of §4.2. Ties break towards the lower peer id for
// determinism. ok is false when every neighbour is excluded.
func (net *Network) highestDegreeNeighbor(n *Node, q *QueryMsg, from overlay.PeerID) (overlay.PeerID, bool) {
	best := overlay.PeerID(-1)
	bestDeg := -1
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) || !net.Graph.Online(nb) {
			continue
		}
		if d := net.Graph.Degree(nb); d > bestDeg {
			best, bestDeg = nb, d
		}
	}
	return best, best >= 0
}

// String describes the network.
func (net *Network) String() string {
	return fmt.Sprintf("network{%s n=%d}", net.Behavior.Name(), len(net.nodes))
}

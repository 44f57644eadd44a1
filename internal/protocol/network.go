package protocol

import (
	"fmt"
	"math/bits"
	"math/rand"

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
	// positions in a fixed-size stack array).
	BloomBits, BloomK int
	// BloomGossipPeriod is how often peers push BF updates to neighbours.
	BloomGossipPeriod sim.Time
	// FinalizeAfter is how long after submission a query's record is
	// sealed. It must exceed TTL × max one-way latency + the response trip.
	FinalizeAfter sim.Time
	// ProcessingDelay models per-hop forwarding cost added to link latency.
	ProcessingDelay sim.Time
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
	}
}

// pendingQuery is everything the network keeps for one in-flight query: the
// requester-side record and the state every delivery consults. Each
// QueryMsg and ResponseMsg points at it, so no delivery looks anything up.
// It is also the query's finalize event, posted once at submission
// FinalizeAfter ahead (see Fire). Instances are pooled: finalize returns
// them to the network's free list.
// Memory is O(visited) per in-flight query: seen is a 1 KB table that
// doubles at half full, and the N/8-byte bitmap only where the bitmap is the
// smaller. After 25 000 Locaware queries at 100 000 peers the heap holds
// 460 B per peer, against 995 when every query held the bitmap.
type pendingQuery struct {
	// net never changes: the query's messages reach their network here.
	net *Network
	// id is the query this value serves; finalize zeroes it and a recycled
	// value carries a newer one, so a message whose ID differs is a
	// straggler of a finalised query.
	id QueryID
	// q is the keyword set and sig its signature (querySig), which every
	// delivery tests against the receiver's signatures before anything else.
	q   keywords.Query
	sig uint64
	// origin is the requesting peer and originLoc its locality (§4.1.2: the
	// answering peer selects providers according to the locId of the
	// querying peer, so the query carries it).
	origin    overlay.PeerID
	originLoc netmodel.LocID
	// fold is kwIdx's fold (bloom.FoldIndexes), set with it: a Locaware hop
	// whose peer's nbFold lacks one of its bits skips the Bloom tier.
	fold      uint64
	rtt       float64
	answered  bool
	sameLoc   bool
	fromCache bool
	// spans is the last trace span id emit gave one of the query's events;
	// it counts only while a tracer is attached. It sits beside the bools,
	// in their word's padding.
	spans int32
	// seenN is how many keys seen's table holds, or -1 while seen is the
	// bitmap.
	seenN int32
	// gid is the group id of the row's routing key, hashed once at
	// submission: every Gid-routing hop consults it. It, hops and messages
	// are 32-bit so that they fill the words beside seenN, which keeps
	// pendingQuery at 144 B with sig and fold.
	gid, hops, messages int32
	// seen is the duplicate-suppression set (Gnutella semantics), the peers
	// that handled the query: an open-addressed table of peer+1 keys (0 is
	// empty; Fibonacci hash, high bits, linear probing), or one bit per peer
	// in ⌈N/32⌉ words where that is smaller. It stays with the pooled value.
	seen []uint32
	// kwIdx holds the Bloom positions of the query's keywords (K each, in
	// the network's one filter geometry), hashed once at submission: "BF
	// matches q" (§4.2) is "every position set". Only neighbour-filter
	// routing reads them. Empty without Bloom routing.
	kwIdx []uint32
}

// seenSlots is a fresh table's size, 1 KB, an 8 192-peer bitmap's bytes: at
// 20 000 peers 97.5 % of queries visit fewer than 128 peers and never grow it.
const seenSlots = 256

// markSeen records that peer p handles the query and reports whether it
// already had. Suppression is by first arrival: a later copy is a duplicate
// whatever TTL it carries, so a longer-TTL copy that arrives second reaches
// no further than the first (unspecified by the paper).
func (pq *pendingQuery) markSeen(p overlay.PeerID) (dup bool) {
	if pq.seenN < 0 {
		w, bit := uint(p)/32, uint32(1)<<(uint(p)%32)
		dup = pq.seen[w]&bit != 0
		pq.seen[w] |= bit
		return dup
	}
	key, mask := uint32(p)+1, uint32(len(pq.seen)-1)
	for i := key * 0x9E3779B9 >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		switch pq.seen[i] {
		case key:
			return true
		case 0:
			pq.seen[i] = key
			if pq.seenN++; 2*int(pq.seenN) >= len(pq.seen) {
				pq.net.growSeen(pq)
			}
			return false
		}
	}
}

// resetSeen empties a pooled value's set, clearing only what its last query
// used, or makes a fresh value's: the bitmap where it is no larger than a
// fresh table (N ≤ 8 192), else a table carved from the network's block.
func (net *Network) resetSeen(seen []uint32) ([]uint32, int32) {
	clear(seen)
	if words := (len(net.nodes) + 31) / 32; words <= seenSlots {
		if seen == nil {
			seen = make([]uint32, words)
		}
		return seen, -1
	}
	if seen == nil {
		seen = sim.Carve(&net.seenBlock, seenSlots)
	}
	return seen[:seenSlots], 0
}

// growSeen doubles pq's half-full table, or makes it the bitmap (a flood's
// one-word test) when the doubled table would be no smaller. Both reuse the
// array if it has room: past the part in use it is zero.
func (net *Network) growSeen(pq *pendingQuery) {
	keys := net.seenBuf[:0]
	for _, k := range pq.seen {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	net.seenBuf = keys[:0]
	n, words := 2*len(pq.seen), (len(net.nodes)+31)/32
	pq.seenN = 0
	if n >= words {
		n, pq.seenN = words, -1
	}
	clear(pq.seen)
	if cap(pq.seen) < n {
		pq.seen = make([]uint32, n)
	} else {
		pq.seen = pq.seen[:n]
	}
	for _, k := range keys {
		pq.markSeen(overlay.PeerID(k - 1))
	}
}

// EventName implements sim.Named.
func (pq *pendingQuery) EventName() string { return "query-finalize" }

// Fire implements sim.Event: the query's record is sealed FinalizeAfter
// after submission.
func (pq *pendingQuery) Fire(*sim.Engine) { pq.net.finalize(pq) }

// ForwardStats counts routing decisions, for diagnosis and the routing
// ablations: how often each selection tier fired.
type ForwardStats struct {
	// BloomMatched counts forwards chosen by a Bloom-filter match.
	BloomMatched uint64
	// GidMatched counts forwards chosen by group-Id match.
	GidMatched uint64
	// Fallback counts last-resort forwards (highest-degree + random).
	Fallback uint64
	// FloodAll counts blind forwards (RouteAll).
	FloodAll uint64
}

// Counts tallies the run's query lifecycle and per-peer lookups.
type Counts struct {
	// Submitted and Finalized count queries injected and sealed.
	Submitted, Finalized uint64
	// CacheHits counts response-index lookups that answered; CacheMisses
	// those that missed, so the peer forwarded the query on.
	CacheHits, CacheMisses uint64
	// StorageHits counts queries matched by a peer's shared storage.
	StorageHits uint64
	// PendingHighWater is the most queries ever in flight at once.
	PendingHighWater uint64
}

// Network binds the substrates and one protocol row into a runnable
// system. It is single-threaded: every event fires on the goroutine that
// runs Engine, so none of its state needs a lock.
type Network struct {
	Engine    *sim.Engine
	Graph     *overlay.Graph
	Model     *netmodel.Model
	Locator   *netmodel.Locator
	Collector *metrics.Collector
	Config    Config

	// spec is the protocol row every routing, caching and download decision
	// branches on.
	spec Spec

	// nodes is the flat per-peer table of node values, built table by table
	// at network build (newNodes; the tendermint-simulator layout: contiguous
	// state, pointer-stable because no table ever grows); a loop takes
	// &nodes[i], since a copy would lose its writes. sigs is the signature
	// column newNodes builds with it and gids the group id of each peer in
	// [0, M) (§3.2), both indexed by peer: a delivery reads a peer's rows
	// first, and its node only if the rows let it. gids is int32 because M
	// is bounded only by MaxInt32.
	nodes []Node
	sigs  []peerSig
	gids  []int32

	// rng drives protocol tie-breaking (stream "protocol").
	rng *rand.Rand

	// nextID assigns query ids; queries with ids up to warmup are not
	// recorded (see Measure).
	nextID QueryID
	warmup QueryID

	// Object pools, one per pooled type, all under sim.Pool's rule: the
	// sender acquires a value, fills every field and posts it; its last user
	// Puts it back — an event when it fires, a response when its walk ends,
	// a query's state when it finalises. Recycled values keep steady-state
	// scheduling allocation-free. An event dropped by the engine's horizon
	// is never fired and is reclaimed by the GC. The gossip round timer is
	// one unpooled value per network.
	pqPool   sim.Pool[pendingQuery]
	msgPool  sim.Pool[QueryMsg]
	respPool sim.Pool[ResponseMsg]
	biPool   sim.Pool[bloomInstallEvent]
	// What is left of the blocks sim.Carve cuts windows from: fresh messages'
	// paths, fresh queries' Bloom positions and visited tables, nodes'
	// neighbour-filter tables.
	pathBlock []overlay.PeerID
	kwBlock   []uint32
	seenBlock []uint32
	nbBlock   []neighborFilter

	// Reusable scratch buffers for the per-event selection loops, each
	// filled and fully consumed within one event delivery: the hop's
	// candidates, its targets, the fallback set, the live
	// providers, and a response-index lookup's matches and their providers.
	eligBuf  []overlay.PeerID
	fwdBuf   []overlay.PeerID
	fbBuf    []overlay.PeerID
	provBuf  []cache.Provider
	matchBuf []cache.Match
	riBuf    []cache.Provider
	// flipBuf is the one announcement-delta buffer every node's PublishBloom
	// fills in turn in a gossip round, which reads only each delta's size.
	flipBuf []uint32
	// seenBuf holds a visited table's keys while growSeen rebuilds it.
	seenBuf []uint32

	// forwarding / control / lifecycle counters tally the run; whoever
	// reports them reads them once, when the run is over.
	forwarding      ForwardStats
	controlMessages uint64
	controlBits     uint64
	counts          Counts

	// tracer, when non-nil, receives a structured event for every step of a
	// query's life and every scenario phase entry (set via SetTracer). In a
	// run it is the trace.FlightRecorder core attaches; every emit, and
	// every detail string, is skipped when it is nil.
	tracer trace.Tracer
	// detailBuf is the reusable scratch trace-detail strings are built in,
	// so a traced hot path pays one string copy per annotated event instead
	// of a fmt.Sprintf.
	detailBuf []byte
}

// NewNetwork assembles a network. cfg is used as given: callers start from
// DefaultConfig, which states every default once. The network runs b's row.
// gidRng draws each node's random Gid; protoRng drives protocol
// tie-breaking.
func NewNetwork(eng *sim.Engine, g *overlay.Graph, m *netmodel.Model, loc *netmodel.Locator,
	b Behavior, cfg Config, gidRng, protoRng *rand.Rand) *Network {
	net := &Network{
		Engine:    eng,
		Graph:     g,
		Model:     m,
		Locator:   loc,
		spec:      b.Spec(),
		Collector: metrics.NewCollectorWith(cfg.Collector),
		Config:    cfg,
		rng:       protoRng,
		// Selection scratch: sized past the default MaxDegree (12) so the
		// per-event loops run allocation-free; pathological degrees merely
		// cost a transient grow.
		eligBuf: make([]overlay.PeerID, 0, 64),
		fwdBuf:  make([]overlay.PeerID, 0, 64),
		fbBuf:   make([]overlay.PeerID, 0, 64),
		provBuf: make([]cache.Provider, 0, 16),
	}
	net.nodes, net.sigs = newNodes(g.N(), net.spec.CacheConfig(cfg.Cache), net.spec.Bloom, cfg.BloomBits, cfg.BloomK)
	net.gids = make([]int32, len(net.nodes))
	for i := range net.nodes {
		net.gids[i], net.nodes[i].Loc = int32(gidRng.Intn(cfg.GroupCount)), loc.LocID(i)
	}
	if net.spec.Bloom && cfg.BloomGossipPeriod > 0 && len(net.nodes) > 0 {
		eng.PostEvent(cfg.BloomGossipPeriod, &gossipRoundEvent{net: net, period: cfg.BloomGossipPeriod})
	}
	return net
}

// SetTracer attaches (or, with nil, detaches) a tracer. Call before the
// run starts.
func (net *Network) SetTracer(tr trace.Tracer) { net.tracer = tr }

// TraceEnabled reports whether a tracer is attached; callers use it to
// skip building detail strings on untraced runs.
func (net *Network) TraceEnabled() bool { return net.tracer != nil }

// EmitControl emits a control-plane trace event (no peer, no query) at the
// current virtual time; scenario phase boundaries use it.
func (net *Network) EmitControl(k trace.Kind, detail string) {
	if net.tracer != nil {
		net.tracer.Emit(trace.Event{At: net.Engine.Now(), Kind: k, Peer: -1, From: -1, Detail: detail})
	}
}

// emit sends one of query id's trace events when a tracer is attached and
// returns the span id it gave the event: the query's next one, hung under
// parent. A response that outlives its query finds pq recycled (pq.id !=
// id); its event gets span 0 and leaves the newer query's counter alone.
// Untraced, emit returns 0 after one nil test; detail annotations that cost
// an allocation are built by the call sites behind their own tracer check.
func (net *Network) emit(k trace.Kind, pq *pendingQuery, id QueryID, parent int32, peer, from overlay.PeerID, detail string) int32 {
	if net.tracer == nil {
		return 0
	}
	var span int32
	if pq.id == id {
		pq.spans++
		span = pq.spans
	}
	net.tracer.Emit(trace.Event{
		At:     net.Engine.Now(),
		Kind:   k,
		Query:  uint64(id),
		Span:   span,
		Parent: parent,
		Peer:   int(peer),
		From:   int(from),
		Detail: detail,
	})
	return span
}

// emitFile is emit with f's name as the detail, spelt only when a tracer
// is attached.
func (net *Network) emitFile(k trace.Kind, pq *pendingQuery, id QueryID, parent int32, peer, from overlay.PeerID, f keywords.Filename) int32 {
	if net.tracer == nil {
		return 0
	}
	net.detailBuf = f.AppendName(net.detailBuf[:0])
	return net.emit(k, pq, id, parent, peer, from, string(net.detailBuf))
}

// Node returns peer p's protocol state.
func (net *Network) Node(p overlay.PeerID) *Node { return &net.nodes[p] }

// ControlMessages returns the number of Bloom gossip messages sent.
func (net *Network) ControlMessages() uint64 { return net.controlMessages }

// ControlBits returns the total gossiped delta payload in bits.
func (net *Network) ControlBits() uint64 { return net.controlBits }

// StaleBloomFallbacks returns 0: an install event carries its own copy of
// the announcement, so no install can outlive what it delivers. Kept for
// the benchmark harness, which still reports it.
func (net *Network) StaleBloomFallbacks() uint64 { return 0 }

// Forwarding returns the run's routing-tier tallies.
func (net *Network) Forwarding() ForwardStats { return net.forwarding }

// Counts returns the run's query lifecycle and lookup tallies.
func (net *Network) Counts() Counts { return net.counts }

// String describes the network.
func (net *Network) String() string {
	return fmt.Sprintf("network{%s n=%d}", net.spec.Label, len(net.nodes))
}

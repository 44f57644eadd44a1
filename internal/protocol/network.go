package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/obs"
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
	// implementations may return the shard-local target buffer
	// (Network.targetBuf(n)).
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
// Instances are pooled: finalize returns them to the owning shard's free
// list.
type pendingQuery struct {
	origin overlay.PeerID
	// col is the collector the query will finalise into; captured at
	// submission so a mid-run collector reset (warmup) does not leak
	// in-flight queries into the measured phase. Sharded networks leave it
	// nil and route by query id at the epoch flush instead.
	col       *metrics.Collector
	messages  int
	answered  bool
	rtt       float64
	sameLoc   bool
	fromCache bool
	hops      int
	finalized bool
	// visited lists the peers whose duplicate-suppression set holds this
	// query, so finalisation can erase the entries and keep per-node seen
	// state bounded by the in-flight query count instead of the run length.
	// Only maintained on the single-queue path; sharded networks track
	// visits per shard (shardState.visited) so marking never crosses a
	// shard boundary.
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

// add accumulates o into s.
func (s *ForwardStats) add(o ForwardStats) {
	s.BloomMatched += o.BloomMatched
	s.GidMatched += o.GidMatched
	s.Fallback += o.Fallback
	s.FloodAll += o.FloodAll
}

// shardState is the mutable hot-path state of one shard: pending queries
// owned by the shard's peers, every object pool, the selection scratch, the
// tie-breaking RNG and the traffic counters. A single-queue network has
// exactly one; a sharded network has one per shard, and each is touched
// only by events delivered on its own engine — which is what lets the
// sharded runner drain the shards of an epoch on separate goroutines.
// Cross-shard bookkeeping (message counts for queries owned elsewhere,
// queries finalised this epoch) accumulates locally and merges at the
// sequential epoch flush.
type shardState struct {
	idx int
	// eng is the shard's engine; reading its clock from the shard's own
	// events is race-free, unlike reading another shard's.
	eng *sim.Engine
	rng *rand.Rand

	pending map[QueryID]*pendingQuery

	// Object pools, one per pooled type, all under sim.Pool's rule: a
	// value is acquired on the sending shard and Put back on the shard it
	// is last used on — for the events of events.go, the shard they fire
	// on. Recycled events keep steady-state scheduling allocation-free.
	pqPool   sim.Pool[pendingQuery]
	msgPool  sim.Pool[QueryMsg]
	respPool sim.Pool[ResponseMsg]
	qdPool   sim.Pool[queryDeliverEvent]
	rdPool   sim.Pool[responseDeliverEvent]
	finPool  sim.Pool[finalizeEvent]
	biPool   sim.Pool[bloomInstallEvent]
	qsPool   sim.Pool[querySubmitEvent]
	snapPool sim.Pool[bloom.Filter]

	// Reusable scratch buffers for the per-event selection loops. Each is
	// filled and fully consumed within one event delivery on this shard's
	// engine, so one instance per shard suffices.
	fwdBuf  []overlay.PeerID
	fwdBuf2 []overlay.PeerID
	eligBuf []overlay.PeerID
	restBuf []overlay.PeerID
	fbBuf   []overlay.PeerID
	provBuf []cache.Provider

	// forwarding / control counters tally this shard's share of the run's
	// traffic; Network's accessors sum across shards.
	forwarding          ForwardStats
	controlMessages     uint64
	controlBits         uint64
	staleBloomFallbacks uint64

	// peers lists the shard's own peers in ascending id order (the gossip
	// scan's deterministic walk). The single-queue state holds all peers.
	peers []overlay.PeerID

	// msgDelta counts overlay messages this shard attributed to queries
	// owned by other shards; merged into the owning pendingQuery at the
	// epoch flush. Empty on the single-queue path.
	msgDelta map[QueryID]int

	// visited records, per query, the peers of this shard whose seen set
	// holds the query; erased across all shards when the query's record is
	// sealed at the epoch flush. visFree recycles the slices. Sharded mode
	// only — the single-queue path keeps pendingQuery.visited.
	visited map[QueryID][]overlay.PeerID
	visFree [][]overlay.PeerID

	// finished queues the ids of queries this shard finalised during the
	// current epoch; records seal in ascending id order at the flush.
	finished []QueryID

	// instr, when non-nil, is the shard's observability cell (see obs.go):
	// plain local counters folded into the shared registry at sequential
	// epoch boundaries, so the hot path stays uncontended and alloc-free.
	instr *shardInstr

	// tr, when non-nil, receives this shard's trace events: the shard's
	// trace.Cell under the sharded runner (merged into the sink at the
	// sequential epoch flush, so tracing does not force the sequential
	// drain), or the sink itself on the single-queue path.
	tr trace.Tracer
	// traceWant is the sink's kind-interest bitmask (trace.WantMask): emits
	// of kinds the sink discards — gossip under a flight recorder — are
	// skipped before the event (or its detail string) is built.
	traceWant uint32
	// detailBuf is the reusable scratch trace-detail strings are built in,
	// so a traced hot path pays one string copy per annotated event instead
	// of a fmt.Sprintf.
	detailBuf []byte
}

// traces reports whether kind k should be emitted on this shard.
func (st *shardState) traces(k trace.Kind) bool {
	return st.tr != nil && st.traceWant&(1<<k) != 0
}

func newShardState(idx int, eng *sim.Engine, rng *rand.Rand, sharded bool) *shardState {
	st := &shardState{
		idx:     idx,
		eng:     eng,
		rng:     rng,
		pending: make(map[QueryID]*pendingQuery),
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
	if sharded {
		st.msgDelta = make(map[QueryID]int)
		st.visited = make(map[QueryID][]overlay.PeerID)
	}
	return st
}

// noteVisited records that peer p's seen set holds query id (sharded mode).
func (st *shardState) noteVisited(id QueryID, p overlay.PeerID) {
	vs, ok := st.visited[id]
	if !ok {
		if n := len(st.visFree); n > 0 {
			vs = st.visFree[n-1][:0]
			st.visFree = st.visFree[:n-1]
		}
	}
	st.visited[id] = append(vs, p)
}

// Network binds the substrates and one protocol behaviour into a runnable
// system. On the single-queue engine it is single-threaded; under the
// sharded runner every piece of mutable hot-path state lives in a per-shard
// shardState, so the shards of an epoch may drain on separate goroutines.
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
	// pointer-stable because the slice never grows). Each node's state is
	// only touched by events delivered on its own shard.
	nodes   []*Node
	nodeArr []Node

	// states holds one shardState per shard (exactly one on the
	// single-queue path).
	states  []*shardState
	sharded bool
	// shardOf maps a peer to its shard index, normalised exactly as the
	// sharded runner normalises it; nil on the single-queue path.
	shardOf func(peer int) int
	// injectDelay is the lead a sharded submission travels with from the
	// control shard to the origin's shard: the epoch lookahead, which makes
	// the hand-off barrier-safe by construction.
	injectDelay sim.Time

	// nextID assigns query ids; only the submission chain (control shard)
	// touches it.
	nextID QueryID

	// finalizedWatermark is the highest query id whose record has been
	// sealed. Finalisations occur in ascending id order (finalize time is
	// submission time plus the constant FinalizeAfter), so id <= watermark
	// identifies a dead query. Written only at the sequential epoch flush;
	// read by shard drains — making it the race-free sharded replacement
	// for the cross-shard pending-map straggler probe.
	finalizedWatermark QueryID

	// warmupIDs / warmCol route the first warmupIDs query records into a
	// discarded side collector (sharded mode's equivalent of the
	// single-queue collector reset, which would race the shard drains).
	warmupIDs QueryID
	warmCol   *metrics.Collector

	// flushIDs is the epoch flush's reusable sort scratch.
	flushIDs []QueryID

	// traceSink, when non-nil, receives a structured event for every
	// significant protocol action (set via SetTracer). Tracing a
	// paper-scale run is cheap with a bounded trace.Buffer or a sampling
	// trace.FlightRecorder. On the single-queue path events pass straight
	// through; under the sharded runner each shard buffers into its own
	// traceCol cell and the collector merges them — in ascending
	// (time, QueryID, shard) order — at the sequential epoch flush, so the
	// sink sees one deterministic stream whichever way the epoch drained
	// and tracing no longer forces the sequential drain.
	traceSink trace.Tracer
	traceCol  *trace.Collector

	// obsReg / obsLag / obsLagHW back the observability layer (obs.go):
	// the shared registry, the watermark-lag gauge, and the run-local lag
	// high-water. Unlike the Tracer, instrumentation is shard-confined
	// (each shardState owns its cell) so it never forces the sequential
	// drain.
	obsReg   *obs.Registry
	obsLag   *obs.Gauge
	obsLagHW uint64
}

// NewNetwork assembles a single-queue network. gidRng draws each node's
// random Gid; protoRng drives protocol tie-breaking.
func NewNetwork(eng *sim.Engine, g *overlay.Graph, m *netmodel.Model, loc *netmodel.Locator,
	b Behavior, cfg Config, gidRng, protoRng *rand.Rand) *Network {
	return buildNetwork([]*sim.Engine{eng}, nil, []*rand.Rand{protoRng}, 0, g, m, loc, b, cfg, gidRng)
}

// NewShardedNetwork assembles a network over the sharded runner: one
// shardState per shard, submissions injected from the control shard with
// the epoch lookahead as lead time, and the per-shard bookkeeping merged
// through loop's epoch hook. shardOf must be the same map given to the
// runner; shardRngs supplies one tie-breaking stream per shard (stream 0
// is the single-queue protocol stream, so a 1-shard layout would be
// byte-identical); injectDelay is the runner's Lookahead.
func NewShardedNetwork(loop *sim.Sharded, shardOf sim.ShardMap, shardRngs []*rand.Rand,
	injectDelay sim.Time, g *overlay.Graph, m *netmodel.Model, loc *netmodel.Locator,
	b Behavior, cfg Config, gidRng *rand.Rand) *Network {
	n := loop.Shards()
	if n < 2 {
		panic("protocol: NewShardedNetwork needs a loop with at least 2 shards")
	}
	if shardOf == nil {
		panic("protocol: NewShardedNetwork needs the runner's ShardOf map")
	}
	if len(shardRngs) != n {
		panic("protocol: NewShardedNetwork needs one RNG per shard")
	}
	engines := make([]*sim.Engine, n)
	for i := range engines {
		engines[i] = loop.Engine(i)
	}
	net := buildNetwork(engines, shardOf, shardRngs, injectDelay, g, m, loc, b, cfg, gidRng)
	loop.SetEpochHook(net.EpochFlush)
	return net
}

func buildNetwork(engines []*sim.Engine, rawShardOf sim.ShardMap, rngs []*rand.Rand,
	injectDelay sim.Time, g *overlay.Graph, m *netmodel.Model, loc *netmodel.Locator,
	b Behavior, cfg Config, gidRng *rand.Rand) *Network {
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
	nShards := len(engines)
	net := &Network{
		Engine:      engines[0],
		Graph:       g,
		Model:       m,
		Locator:     loc,
		Behavior:    b,
		Collector:   metrics.NewCollectorWith(cfg.Collector),
		Config:      cfg,
		states:      make([]*shardState, nShards),
		sharded:     nShards > 1,
		injectDelay: injectDelay,
	}
	if net.sharded {
		// Normalise exactly as sim.Sharded does, so an event delivered on
		// engine i always resolves states[i].
		net.shardOf = func(peer int) int {
			k := rawShardOf(peer) % nShards
			if k < 0 {
				k += nShards
			}
			return k
		}
	}
	for i := range net.states {
		net.states[i] = newShardState(i, engines[i], rngs[i], net.sharded)
	}
	cacheCfg := b.CacheConfig(cfg.Cache)
	net.nodeArr = make([]Node, g.N())
	net.nodes = make([]*Node, g.N())
	for i := range net.nodeArr {
		n := &net.nodeArr[i]
		initNode(n, overlay.PeerID(i), gidRng.Intn(cfg.GroupCount),
			loc.LocID(i), cacheCfg, b.UsesBloom(), cfg.BloomBits, cfg.BloomK)
		net.nodes[i] = n
		net.states[net.shardIdx(i)].peers = append(net.states[net.shardIdx(i)].peers, overlay.PeerID(i))
	}
	if b.UsesBloom() && cfg.BloomGossipPeriod > 0 {
		// One gossip scan per shard over its own peers (a single scan over
		// everything on the single-queue path), each on its shard's engine.
		for i, st := range net.states {
			if len(st.peers) == 0 {
				continue
			}
			engines[i].PostEvent(cfg.BloomGossipPeriod,
				&gossipRoundEvent{net: net, st: st, period: cfg.BloomGossipPeriod})
		}
	}
	return net
}

// shardIdx maps a peer to its shard index (0 on the single-queue path).
func (net *Network) shardIdx(peer int) int {
	if !net.sharded {
		return 0
	}
	return net.shardOf(peer)
}

// stateFor returns the shard state owning node n.
func (net *Network) stateFor(n *Node) *shardState { return net.states[net.shardIdx(int(n.ID))] }

// stateOn returns the shard state of the engine an event is firing on.
func (net *Network) stateOn(eng *sim.Engine) *shardState { return net.states[eng.Shard()] }

// nowFor returns the current virtual time on the shard that owns n.
// Behaviours use it instead of Network.Engine.Now(): reading another
// shard's clock mid-epoch would race with that shard's drain goroutine.
func (net *Network) nowFor(n *Node) sim.Time { return net.stateFor(n).eng.Now() }

// SetTracer attaches (or, with nil, detaches) a tracer. On the
// single-queue path every shard emit goes straight to tr; under the
// sharded runner a per-shard cell collector is wired so emits stay
// shard-confined and merge deterministically at the epoch flush. Call
// before the run starts.
func (net *Network) SetTracer(tr trace.Tracer) {
	net.traceSink = tr
	net.traceCol = nil
	if tr == nil {
		for _, st := range net.states {
			st.tr, st.traceWant = nil, 0
		}
		return
	}
	// Interest is the sink's even under sharding, where st.tr is a merge
	// cell: a kind the sink discards need not transit the cells either.
	want := trace.WantMask(tr)
	if !net.sharded {
		net.states[0].tr, net.states[0].traceWant = tr, want
		return
	}
	net.traceCol = trace.NewCollector(tr, len(net.states))
	for i, st := range net.states {
		st.tr, st.traceWant = net.traceCol.Cell(i), want
	}
}

// TracerSink returns the tracer attached with SetTracer (nil when
// untraced).
func (net *Network) TracerSink() trace.Tracer { return net.traceSink }

// TraceEnabled reports whether a tracer is attached; callers use it to
// skip building detail strings on untraced runs.
func (net *Network) TraceEnabled() bool { return net.traceSink != nil }

// EmitControl emits a control-plane trace event (no peer, no query) at the
// control shard's current time. It must be called from an event firing on
// the control shard — scenario phase boundaries do — so the event lands in
// shard 0's cell rather than racing the parallel drain.
func (net *Network) EmitControl(k trace.Kind, detail string) {
	st := net.states[0]
	if !st.traces(k) {
		return
	}
	st.tr.Emit(trace.Event{At: st.eng.Now(), Kind: k, Peer: -1, From: -1, Detail: detail})
}

// emit sends a trace event on st's shard when tracing is enabled; detail
// annotations that cost an allocation are built by the call sites behind
// their own st.tr check. The timestamp is st's own engine clock, which the
// firing event's goroutine may always read.
func (net *Network) emit(st *shardState, k trace.Kind, query QueryID, peer, from overlay.PeerID, detail string) {
	if !st.traces(k) {
		return
	}
	st.tr.Emit(trace.Event{
		At:     st.eng.Now(),
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
func (net *Network) ControlMessages() uint64 {
	var n uint64
	for _, st := range net.states {
		n += st.controlMessages
	}
	return n
}

// ControlBits returns the total gossiped delta payload in bits.
func (net *Network) ControlBits() uint64 {
	var n uint64
	for _, st := range net.states {
		n += st.controlBits
	}
	return n
}

// StaleBloomFallbacks returns how many gossip installs outlived their
// announce buffer and fell back to the sender's current published
// snapshot (see bloomInstallEvent).
func (net *Network) StaleBloomFallbacks() uint64 {
	var n uint64
	for _, st := range net.states {
		n += st.staleBloomFallbacks
	}
	return n
}

// Forwarding returns the run's routing-tier tallies, summed across shards.
func (net *Network) Forwarding() ForwardStats {
	var s ForwardStats
	for _, st := range net.states {
		s.add(st.forwarding)
	}
	return s
}

// stats returns the forwarding tallies of the shard owning n; behaviours
// bump their routing-tier counters through it.
func (net *Network) stats(n *Node) *ForwardStats { return &net.stateFor(n).forwarding }

// targetBuf returns the empty per-shard buffer Behavior.Forward
// implementations accumulate their target list into. The buffer is valid
// until the next Forward call on n's shard; the network consumes it
// immediately.
func (net *Network) targetBuf(n *Node) []overlay.PeerID { return net.stateFor(n).fwdBuf[:0] }

// targetBuf2 is a second target buffer for behaviours that partition
// neighbours into two candidate lists (e.g. LocawareLR's same-locality
// split).
func (net *Network) targetBuf2(n *Node) []overlay.PeerID { return net.stateFor(n).fwdBuf2[:0] }

// acquirePending takes a pendingQuery from the shard's pool.
func (net *Network) acquirePending(st *shardState, origin overlay.PeerID) *pendingQuery {
	var col *metrics.Collector
	if !net.sharded {
		col = net.Collector
	}
	pq := st.pqPool.Get()
	*pq = pendingQuery{origin: origin, col: col, visited: pq.visited[:0]}
	return pq
}

// releaseMsg returns a fully processed query message to the shard's pool:
// whoever takes one from msgPool owns it until the delivery event releases
// it here (or never, for a dropped event, in which case the GC reclaims it).
// KwStrs is cleared rather than reused: responses created during processing
// may still alias the keyword-string slice (it is shared per query, not per
// branch).
func (st *shardState) releaseMsg(m *QueryMsg) {
	m.Path = m.Path[:0]
	m.KwStrs = nil
	st.msgPool.Put(m)
}

// gossipBlooms runs one gossip round over st's peers: every online one
// whose filter changed since its last announcement sends the update to each
// neighbour as a real message, delivered after link latency (§4.2:
// neighbours hold possibly stale copies). Traffic is charged per neighbour
// at the delta's encoded size (footnote 1) even though the delivered
// payload installs the full snapshot — the delta is what the wire would
// carry.
func (net *Network) gossipBlooms(eng *sim.Engine, st *shardState) {
	for _, pid := range st.peers {
		n := net.nodes[pid]
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
			st.controlMessages++
			st.controlBits += uint64(sizeBits)
			if st.traces(trace.BloomGossip) {
				d := append(st.detailBuf[:0], "delta="...)
				d = strconv.AppendInt(d, int64(sizeBits), 10)
				d = append(d, "bits"...)
				st.detailBuf = d
				net.emit(st, trace.BloomGossip, 0, nb, from, string(d))
			}
			if net.sharded && net.shardIdx(int(nb)) != st.idx {
				// Cross-shard installs carry an owned copy taken now: the
				// install must not read the sender's live announce buffers
				// from another shard's goroutine. Copy-on-send also means
				// the neighbour sees the exact announce-time content — the
				// stale-buffer fallback cannot arise.
				net.send(eng, from, nb, st.acquireBloomInstallOwned(net, nb, from, snapshot))
				continue
			}
			net.send(eng, from, nb, st.acquireBloomInstall(net, nb, from, snapshot, snapGen))
		}
	}
}

// Submit injects a query at peer origin at the current virtual time. On
// the single-queue engine it submits synchronously; under the sharded
// runner it assigns the id on the control shard and hands the submission to
// the origin's shard as a destined event with the epoch lookahead as lead
// time — a delay every epoch barrier admits by construction, so the
// hand-off can never violate the barrier. It returns the QueryID.
func (net *Network) Submit(origin overlay.PeerID, q keywords.Query) QueryID {
	if !net.sharded {
		return net.SubmitQuery(origin, q)
	}
	net.nextID++
	id := net.nextID
	st0 := net.states[0]
	net.Engine.PostEvent(net.injectDelay, st0.acquireSubmit(net, id, origin, q))
	return id
}

// SubmitQuery injects a query at peer origin at the current virtual time,
// synchronously on the control engine, and schedules its finalisation. It
// returns the QueryID. Sharded callers use Submit, which routes the work to
// the origin's shard.
func (net *Network) SubmitQuery(origin overlay.PeerID, q keywords.Query) QueryID {
	net.nextID++
	id := net.nextID
	net.runSubmit(net.Engine, net.states[0], id, origin, q)
	return id
}

// runSubmit performs the submission work on the shard owning origin:
// pending-query creation, finalisation scheduling, the origin's local
// storage and index checks, and the first forwarding fan-out.
func (net *Network) runSubmit(eng *sim.Engine, st *shardState, id QueryID, origin overlay.PeerID, q keywords.Query) {
	pq := net.acquirePending(st, origin)
	st.pending[id] = pq

	if in := st.instr; in != nil {
		in.submitted.Inc()
		in.pendingHW.Observe(uint64(len(st.pending)))
	}
	eng.PostEvent(net.Config.FinalizeAfter, st.acquireFinalize(net, id, origin))
	if st.traces(trace.QuerySubmit) {
		d := q.AppendString(st.detailBuf[:0])
		st.detailBuf = d
		net.emit(st, trace.QuerySubmit, id, origin, -1, string(d))
	}
	if !net.Graph.Online(origin) {
		return
	}
	n := net.nodes[origin]
	net.markSeen(st, n, id, pq)
	// Local check first: the requester may already hold a matching file or
	// index.
	if f, ok := n.storageMatch(q); ok {
		pq.answered = true
		pq.rtt = 0
		pq.sameLoc = true
		pq.hops = 0
		if in := st.instr; in != nil {
			in.storageHits.Inc()
		}
		net.emit(st, trace.StorageHit, id, origin, -1, f.String())
		return
	}
	if ms := n.lookupRI(q, eng.Now()); len(ms) != 0 {
		if prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(st, ms[0].Providers)); ok {
			pq.fromCache = true
			if in := st.instr; in != nil {
				in.cacheHits.Inc()
			}
			net.emit(st, trace.CacheHit, id, origin, -1, ms[0].File.String())
			net.completeDownload(st, id, pq, n, ms[0].File, prov, 0)
			return
		}
	}
	if in := st.instr; in != nil {
		in.cacheMisses.Inc()
	}
	msg := st.msgPool.Get()
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
	net.forward(eng, st, n, msg, origin)
	st.releaseMsg(msg)
}

// markSeen adds the query to n's duplicate-suppression set and registers
// the entry for erasure at finalisation — on the pending query itself on
// the single-queue path, in n's shard's visit log under the sharded runner
// (where the pending query may live on another shard).
func (net *Network) markSeen(st *shardState, n *Node, id QueryID, pq *pendingQuery) {
	n.seen[id] = true
	if !net.sharded {
		pq.visited = append(pq.visited, n.ID)
		return
	}
	st.noteVisited(id, n.ID)
}

// forward runs the behaviour's neighbour selection and ships the query.
// eng is the engine the triggering event fired on; st its shard state.
func (net *Network) forward(eng *sim.Engine, st *shardState, n *Node, q *QueryMsg, from overlay.PeerID) {
	if q.TTL <= 0 {
		return
	}
	targets := net.Behavior.Forward(net, n, q, from)
	for _, t := range targets {
		if t == n.ID || !net.Graph.Online(t) || !net.Graph.Linked(n.ID, t) {
			continue
		}
		branch := st.msgPool.Get()
		branch.ID = q.ID
		branch.Q = q.Q
		branch.KwStrs = q.KwStrs
		branch.QGid = q.QGid
		branch.Origin = q.Origin
		branch.OriginLoc = q.OriginLoc
		branch.TTL = q.TTL - 1
		branch.Path = append(append(branch.Path[:0], q.Path...), t)
		net.send(eng, n.ID, t, st.acquireQueryDeliver(net, n.ID, t, branch))
		net.countMessage(st, q.ID)
		net.emit(st, trace.QueryForward, q.ID, t, n.ID, "")
	}
}

// send schedules delivery of a typed message event over link a->b with the
// physical one-way latency plus processing delay. It posts on eng — the
// engine the current event fired on — so that under the sharded runner an
// intra-shard hop stays in its own queue and only genuinely cross-locality
// deliveries pay the mailbox (on the single-queue engine, eng is always
// net.Engine). Every such delay is at least Model.MinOneWay plus the
// processing delay, which is exactly the epoch lookahead the harness
// derives — so cross-shard sends are always barrier-safe.
func (net *Network) send(eng *sim.Engine, a, b overlay.PeerID, ev sim.Event) {
	delay := sim.FromMillis(net.Model.OneWay(int(a), int(b))) + net.Config.ProcessingDelay
	eng.PostEvent(delay, ev)
}

// countMessage attributes one overlay message to query id: directly when
// st owns the query, into the shard's cross-shard delta otherwise (merged
// at the epoch flush; dead queries — id at or below the watermark — are
// dropped, matching the single-queue "finalised queries stop counting"
// rule).
func (net *Network) countMessage(st *shardState, id QueryID) {
	if pq, ok := st.pending[id]; ok {
		if !pq.finalized {
			pq.messages++
		}
		return
	}
	if !net.sharded {
		return
	}
	if id > net.finalizedWatermark {
		st.msgDelta[id]++
	}
}

// receiveQuery processes an arriving query at peer p. The caller retains
// ownership of q (it is released to the pool after this returns), so any
// state that outlives the call — notably response reverse paths — is
// copied, never aliased.
func (net *Network) receiveQuery(eng *sim.Engine, st *shardState, p overlay.PeerID, q *QueryMsg) {
	if !net.Graph.Online(p) {
		return
	}
	var pq *pendingQuery
	if !net.sharded {
		pq = st.pending[q.ID]
		if pq == nil {
			// The query was already finalised: its seen entries are erased
			// and its record sealed, so processing a straggler would mutate
			// caches the sealed record never saw. Under the documented
			// FinalizeAfter contract (longer than any in-flight message)
			// this cannot happen; with a misconfigured shorter deadline,
			// dropping here keeps the run consistent and the seen sets
			// bounded.
			return
		}
	} else if own, ok := st.pending[q.ID]; ok {
		if own.finalized {
			return
		}
	} else if q.ID <= net.finalizedWatermark {
		// Sealed on another shard: same straggler rule, decided through the
		// watermark instead of a cross-shard map probe. Finalisations occur
		// in ascending id order, so the comparison is exact up to the last
		// epoch flush.
		return
	}
	n := net.nodes[p]
	if n.seen[q.ID] {
		net.emit(st, trace.QueryDuplicate, q.ID, p, -1, "")
		return // duplicate: already counted at send time
	}
	net.markSeen(st, n, q.ID, pq)

	// Storage hit?
	if f, ok := n.storageMatch(q.Q); ok {
		if in := st.instr; in != nil {
			in.storageHits.Inc()
		}
		net.emit(st, trace.StorageHit, q.ID, p, -1, f.String())
		rsp := st.respPool.Get()
		rsp.ID = q.ID
		rsp.File = f
		rsp.Providers = append(rsp.Providers[:0], cache.Provider{Peer: p, LocID: n.Loc, LastSeen: eng.Now()})
		rsp.QueryKws = q.Q
		rsp.Origin = q.Origin
		rsp.OriginLoc = q.OriginLoc
		rsp.Path = append(rsp.Path[:0], q.Path[:len(q.Path)-1]...)
		rsp.HitHops = len(q.Path) - 1
		rsp.FromStorage = true
		net.Behavior.OnAnswer(net, n, q, f)
		net.sendResponse(eng, st, p, rsp)
		return
	}
	// Response-index hit?
	if ms := n.lookupRI(q.Q, eng.Now()); len(ms) != 0 {
		m := net.selectIndexMatch(ms, q)
		if in := st.instr; in != nil {
			in.cacheHits.Inc()
		}
		net.emit(st, trace.CacheHit, q.ID, p, -1, m.File.String())
		rsp := st.respPool.Get()
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
		net.sendResponse(eng, st, p, rsp)
		return
	}
	if in := st.instr; in != nil {
		in.cacheMisses.Inc()
	}
	net.forward(eng, st, n, q, q.Path[len(q.Path)-2])
}

// releaseResponse returns a response to the shard's pool once it completes,
// is dropped by churn, or is superseded.
func (st *shardState) releaseResponse(rsp *ResponseMsg) {
	rsp.Providers = rsp.Providers[:0]
	rsp.Path = rsp.Path[:0]
	rsp.QueryKws = keywords.Query{}
	st.respPool.Put(rsp)
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
func (net *Network) sendResponse(eng *sim.Engine, st *shardState, from overlay.PeerID, rsp *ResponseMsg) {
	if len(rsp.Path) == 0 {
		// The answering node is the origin's neighbourless case; deliver
		// locally (should not happen: origin handles local hits).
		net.deliverResponse(eng, st, rsp.Origin, rsp)
		return
	}
	next := rsp.Path[len(rsp.Path)-1]
	rsp.Path = rsp.Path[:len(rsp.Path)-1]
	net.countMessage(st, rsp.ID)
	net.emit(st, trace.ResponseHop, rsp.ID, next, from, "")
	net.send(eng, from, next, st.acquireResponseDeliver(net, from, next, rsp))
}

// deliverResponse processes the response at peer p: caching, then either
// completion (p is the origin) or the next reverse hop.
func (net *Network) deliverResponse(eng *sim.Engine, st *shardState, p overlay.PeerID, rsp *ResponseMsg) {
	if !net.Graph.Online(p) {
		st.releaseResponse(rsp)
		return // reverse path broken by churn; response is lost
	}
	n := net.nodes[p]
	before := n.RI.Inserts() + n.RI.Refreshes()
	net.Behavior.CacheResponse(net, n, rsp)
	if n.RI.Inserts()+n.RI.Refreshes() != before {
		net.emit(st, trace.ResponseCached, rsp.ID, p, -1, rsp.File.String())
	}
	if p == rsp.Origin {
		net.completeQuery(st, n, rsp)
		st.releaseResponse(rsp)
		return
	}
	net.sendResponse(eng, st, p, rsp)
}

// completeQuery runs requester-side provider selection and download
// accounting for the first arriving response; later responses are ignored.
// It runs at the origin, so st is the shard owning the pending query.
func (net *Network) completeQuery(st *shardState, n *Node, rsp *ResponseMsg) {
	pq, ok := st.pending[rsp.ID]
	if !ok || pq.finalized || pq.answered {
		return
	}
	prov, ok := net.Behavior.SelectProvider(net, n, net.liveProviders(st, rsp.Providers))
	if !ok {
		return // all advertised providers are gone; await another response
	}
	pq.fromCache = !rsp.FromStorage
	net.completeDownload(st, rsp.ID, pq, n, rsp.File, prov, rsp.HitHops)
}

// completeDownload finalises the download bookkeeping: distance metric and
// natural replication (the requester becomes a provider, §3.1). st is the
// shard owning n (the origin).
func (net *Network) completeDownload(st *shardState, id QueryID, pq *pendingQuery, n *Node, f keywords.Filename, prov cache.Provider, hops int) {
	pq.answered = true
	pq.rtt = net.Model.RTT(int(n.ID), int(prov.Peer))
	pq.sameLoc = prov.LocID == n.Loc
	pq.hops = hops
	n.AddFile(f)
	if st.tr != nil {
		d := append(st.detailBuf[:0], f.String()...)
		d = append(d, " rtt="...)
		d = strconv.AppendFloat(d, pq.rtt, 'f', 1, 64)
		d = append(d, "ms sameLoc="...)
		d = strconv.AppendBool(d, pq.sameLoc)
		st.detailBuf = d
		net.emit(st, trace.DownloadComplete, id, n.ID, prov.Peer, string(d))
	}
}

// liveProviders filters out offline providers (stale indexes under churn)
// into the shard's provider scratch buffer, consumed synchronously by
// SelectProvider.
func (net *Network) liveProviders(st *shardState, ps []cache.Provider) []cache.Provider {
	out := st.provBuf[:0]
	for _, p := range ps {
		if net.Graph.Online(p.Peer) {
			out = append(out, p)
		}
	}
	st.provBuf = out[:0]
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

// finalize resolves query id on its owning shard. On the single-queue path
// it seals the record, erases the query's duplicate-suppression entries and
// recycles the bookkeeping immediately; under the sharded runner it only
// marks the query finalised and queues it for the epoch flush, where
// records from all shards seal in ascending id order.
func (net *Network) finalize(st *shardState, id QueryID) {
	pq, ok := st.pending[id]
	if !ok || pq.finalized {
		return
	}
	pq.finalized = true
	if in := st.instr; in != nil {
		in.finalized.Inc()
	}
	if !pq.answered {
		net.emit(st, trace.QueryFailed, id, pq.origin, -1, "")
	}
	net.emit(st, trace.QueryFinalize, id, pq.origin, -1, "")
	if net.sharded {
		st.finished = append(st.finished, id)
		return
	}
	pq.col.Record(queryRecord(pq))
	for _, p := range pq.visited {
		delete(net.nodes[p].seen, id)
	}
	delete(st.pending, id)
	st.pqPool.Put(pq)
}

// lookupPending finds a pending query across shards (the owner is the
// origin's shard; the scan is over the handful of shard states, not peers).
func (net *Network) lookupPending(id QueryID) (*pendingQuery, *shardState) {
	for _, st := range net.states {
		if pq, ok := st.pending[id]; ok {
			return pq, st
		}
	}
	return nil, nil
}

// EpochFlush merges the shards' cross-epoch bookkeeping. The sharded
// runner calls it at every epoch boundary (sequentially, with all shard
// goroutines joined): first every shard's cross-shard message deltas land
// on their owning pending queries, then the epoch's finalised queries seal
// their records in ascending QueryID order — one deterministic global
// record stream, independent of how the shards were drained — their seen
// entries erase across all shards, and the finalised watermark advances.
// A no-op on the single-queue path.
func (net *Network) EpochFlush() {
	if !net.sharded {
		return
	}
	if net.traceCol != nil {
		// Merge the epoch's per-shard trace cells into the sink first —
		// unconditionally, because cells may hold events (gossip,
		// duplicates) even when no query finalised this epoch.
		net.traceCol.Flush()
	}
	for _, st := range net.states {
		if len(st.msgDelta) == 0 {
			continue
		}
		// Iteration order is irrelevant: integer adds on distinct queries
		// commute.
		for id, d := range st.msgDelta {
			if pq, _ := net.lookupPending(id); pq != nil {
				pq.messages += d
			}
		}
		clear(st.msgDelta)
	}
	ids := net.flushIDs[:0]
	for _, st := range net.states {
		ids = append(ids, st.finished...)
		st.finished = st.finished[:0]
	}
	if len(ids) == 0 {
		net.flushIDs = ids
		return
	}
	slices.Sort(ids)
	for _, id := range ids {
		pq, owner := net.lookupPending(id)
		if pq == nil {
			continue
		}
		col := net.Collector
		if id <= net.warmupIDs {
			col = net.warmCol
		}
		col.Record(queryRecord(pq))
		for _, st := range net.states {
			if vs, ok := st.visited[id]; ok {
				for _, p := range vs {
					delete(net.nodes[p].seen, id)
				}
				delete(st.visited, id)
				st.visFree = append(st.visFree, vs[:0])
			}
		}
		delete(owner.pending, id)
		owner.pqPool.Put(pq)
		if id > net.finalizedWatermark {
			net.finalizedWatermark = id
		}
	}
	net.flushIDs = ids[:0]
	if net.obsReg != nil {
		// Sequential barrier context: fold every shard's cell into the
		// registry and refresh the watermark lag, so a worker's /metrics
		// tracks long runs live instead of jumping at the end.
		net.drainObsLocked()
	}
}

// FlushPending finalises all still-pending queries immediately (used at
// the end of a bounded run), in ascending QueryID order — so trace output
// and retained records at an early cutoff are identical run to run instead
// of following Go's randomised map iteration.
func (net *Network) FlushPending() {
	if net.sharded {
		// Merge whatever the final (possibly partial) epoch left queued,
		// then finalise the survivors in id order and seal them through the
		// same flush path.
		net.EpochFlush()
		ids := make([]QueryID, 0, 16)
		for _, st := range net.states {
			for id := range st.pending {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			if _, st := net.lookupPending(id); st != nil {
				net.finalize(st, id)
			}
		}
		net.EpochFlush()
		return
	}
	st := net.states[0]
	if len(st.pending) == 0 {
		return
	}
	ids := make([]QueryID, 0, len(st.pending))
	for id := range st.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		net.finalize(st, id)
	}
}

// ResetCollector swaps in a fresh metrics collector (same configuration)
// and returns the old one. Queries already in flight keep finalising into
// the collector that was active when they were submitted, so a warmup phase
// cannot contaminate the measured phase. Single-queue path only: a sharded
// network routes warmup records by query id (SetWarmupQueries) because a
// mid-run swap would race the shard drains.
func (net *Network) ResetCollector() *metrics.Collector {
	if net.sharded {
		panic("protocol: ResetCollector on a sharded network; use SetWarmupQueries")
	}
	old := net.Collector
	net.Collector = metrics.NewCollectorWith(net.Config.Collector)
	return old
}

// SetWarmupQueries tells a sharded network that the first n submitted
// queries are warmup: their records seal into a discarded side collector,
// and Collector receives exactly the measured stream. Call before the run
// starts. A no-op on the single-queue path (which swaps collectors mid-run
// instead) and for n <= 0.
func (net *Network) SetWarmupQueries(n int) {
	if !net.sharded || n <= 0 {
		return
	}
	net.warmupIDs = QueryID(n)
	net.warmCol = metrics.NewCollectorWith(net.Config.Collector)
}

// Sharded reports whether the network runs on per-shard state under the
// sharded event loop.
func (net *Network) Sharded() bool { return net.sharded }

// fallbackNeighbors implements the last-resort forwarding set shared by the
// selective protocols: the highest-degree eligible neighbour (§4.2's
// "highly connected neighbor") plus up to FallbackFanout-1 random other
// eligible neighbours to keep the walk from degenerating into a single
// path.
func (net *Network) fallbackNeighbors(n *Node, q *QueryMsg, from overlay.PeerID) []overlay.PeerID {
	st := net.stateFor(n)
	best, ok := net.highestDegreeNeighbor(n, q, from)
	if !ok {
		return nil
	}
	eligible := st.eligBuf[:0]
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || q.onPath(nb) || !net.Graph.Online(nb) {
			continue
		}
		eligible = append(eligible, nb)
	}
	st.eligBuf = eligible[:0]
	out := append(st.fbBuf[:0], best)
	st.fbBuf = out[:0]
	if net.Config.FallbackFanout <= 1 || len(eligible) == 1 {
		st.forwarding.Fallback++
		return out
	}
	// Random extras among the remaining eligible neighbours.
	rest := st.restBuf[:0]
	for _, nb := range eligible {
		if nb != best {
			rest = append(rest, nb)
		}
	}
	st.restBuf = rest[:0]
	st.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	extra := net.Config.FallbackFanout - 1
	if extra > len(rest) {
		extra = len(rest)
	}
	out = append(out, rest[:extra]...)
	st.forwarding.Fallback += uint64(len(out))
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

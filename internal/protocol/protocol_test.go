package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// queued is the number of events posted to e and not yet delivered; no
// fixture here sets a horizon, so none is dropped.
func queued(e *sim.Engine) uint64 { return e.Scheduled() - e.Processed() }

// providers is f's live provider list at now, most recent first, as Lookup
// answers a query naming every keyword of f (nil when f is not cached or
// its providers expired).
func providers(x *cache.Index, f keywords.Filename, now sim.Time) []cache.Provider {
	ids := make([]keywords.ID, f.K())
	for i := range ids {
		ids[i] = f.KeywordAt(i)
	}
	for _, m := range x.Lookup(keywords.NewQuery(ids...), now) {
		if m.File.Compare(f) == 0 {
			return m.Providers
		}
	}
	return nil
}

// testNet builds a deterministic network: explicit positions, explicit
// edges, corner landmarks, configurable behaviour.
func testNet(t *testing.T, b Behavior, pts []netmodel.Point, edges [][2]int, cfg Config) *Network {
	t.Helper()
	// Unit tests assert on individual query records, so run the collector
	// in full-fidelity mode.
	cfg.Collector.RetainRecords = true
	eng := sim.NewEngine()
	model := netmodel.NewModel(pts, 1000, netmodel.LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	lm := netmodel.FixedLandmarks([]netmodel.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 0, Y: 1000}, {X: 1000, Y: 1000}})
	loc := netmodel.NewLocator(model, lm)
	g := overlay.NewGraph(len(pts))
	for _, e := range edges {
		if err := g.AddLink(overlay.PeerID(e[0]), overlay.PeerID(e[1])); err != nil {
			t.Fatalf("link %v: %v", e, err)
		}
	}
	gidRng := rand.New(rand.NewSource(1))
	protoRng := rand.New(rand.NewSource(2))
	return NewNetwork(eng, g, model, loc, b, cfg, gidRng, protoRng)
}

// linePoints lays n peers on a horizontal line, spaced apart.
func linePoints(n int) []netmodel.Point {
	pts := make([]netmodel.Point, n)
	for i := range pts {
		pts[i] = netmodel.Point{X: float64(i) * 900 / float64(n), Y: 100}
	}
	return pts
}

// lineEdges connects 0-1-2-...-n-1.
func lineEdges(n int) [][2]int {
	var es [][2]int
	for i := 0; i+1 < n; i++ {
		es = append(es, [2]int{i, i + 1})
	}
	return es
}

// vocab spells the tests' keywords: a word's keyword id is its index, so
// id order is the words' alphabetical order.
var vocab = []string{
	"aaa", "absent", "alpha", "and", "ans", "aware", "away", "bbb",
	"bloomy", "ccc", "comes", "dicas", "dup", "far", "file", "goes",
	"gossiped", "held", "in", "k", "k1", "k2", "k3", "kx",
	"ky", "kz", "late", "loc", "lr", "many", "mine", "needle",
	"pop", "right", "seal", "single", "song", "stack", "stays", "test",
	"traced", "while", "x", "zeta", "zzz",
}

// kw returns word's keyword id.
func kw(word string) keywords.ID {
	i, ok := slices.BinarySearch(vocab, word)
	if !ok {
		panic("keyword " + word + " is not in vocab")
	}
	return keywords.ID(i)
}

func kws(words []string) []keywords.ID {
	out := make([]keywords.ID, len(words))
	for i, w := range words {
		out[i] = kw(w)
	}
	return out
}

func fname(words ...string) keywords.Filename { return keywords.NewFilename(kws(words)...) }

func query(words ...string) keywords.Query { return keywords.NewQuery(kws(words)...) }

func runAll(net *Network) {
	net.Engine.Run(0)
}

// testBranch builds the branch of a query for q that has walked path, with
// the per-query state SubmitQuery would have given it.
func testBranch(net *Network, q keywords.Query, path ...overlay.PeerID) *QueryMsg {
	origin := net.Node(path[0])
	kwIdx := origin.bloomPositions(nil, q)
	pq := &pendingQuery{
		net: net, q: q, sig: querySig(q), gid: net.routingGid(q), origin: origin.ID, originLoc: origin.Loc,
		kwIdx: kwIdx, fold: bloom.FoldIndexes(kwIdx),
	}
	return &QueryMsg{pq: pq, TTL: int32(net.Config.TTL - (len(path) - 1)), Path: path}
}

// eligOf is forward's candidate set by the predicate the six Forward loops
// used to spell: the neighbours of the branch's last peer that are neither
// the sender nor anywhere on the path.
func eligOf(net *Network, q *QueryMsg) []overlay.PeerID {
	var elig []overlay.PeerID
	for _, nb := range net.Graph.Neighbors(q.Path[len(q.Path)-1]) {
		if len(q.Path) > 1 && nb == q.Path[len(q.Path)-2] || slices.Contains(q.Path, nb) {
			continue
		}
		elig = append(elig, nb)
	}
	return elig
}

func TestLocalStorageHitIsFree(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	f := fname("mine")
	net.Node(0).AddFile(f)
	net.SubmitQuery(0, query("mine"))
	runAll(net)
	rec := net.Collector.Records()[0]
	if !rec.Success || rec.Messages != 0 || rec.DownloadRTT != 0 {
		t.Fatalf("local hit: %+v", rec)
	}
}

func TestDicasCachingGidPlacement(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Dicas{}, linePoints(5), lineEdges(5), cfg)
	f := fname("dicas", "file")
	net.Node(4).AddFile(f)
	want := gidOfName(f, cfg.GroupCount)
	// Arrange Gids: nodes 1 and 3 match, 2 does not.
	net.gids[0] = int32((want + 1) % cfg.GroupCount)
	net.gids[1] = int32(want)
	net.gids[2] = int32((want + 1) % cfg.GroupCount)
	net.gids[3] = int32(want)
	net.gids[4] = int32((want + 1) % cfg.GroupCount)

	// Full-filename query (Dicas's intended mode) so routing is correct.
	net.SubmitQuery(0, query("dicas", "file"))
	runAll(net)
	if net.Collector.SuccessRate() != 1 {
		t.Fatal("dicas full-filename query failed on a line")
	}
	now := net.Engine.Now()
	if ps := providers(net.Node(1).RI, f, now); len(ps) != 1 || ps[0].Peer != 4 {
		t.Fatalf("node1 (matching gid) cache = %+v", ps)
	}
	if ps := providers(net.Node(3).RI, f, now); len(ps) != 1 {
		t.Fatalf("node3 (matching gid) cache = %+v", ps)
	}
	if ps := providers(net.Node(2).RI, f, now); ps != nil {
		t.Fatalf("node2 (non-matching gid) cached: %+v", ps)
	}
}

func TestDicasSingleProviderPerFile(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Dicas{}, linePoints(3), lineEdges(3), cfg)
	f := fname("single")
	n1 := net.Node(1)
	net.gids[n1.ID] = int32(gidOfName(f, cfg.GroupCount))
	rsp := &ResponseMsg{
		File: f,
		Providers: []cache.Provider{
			{Peer: 2, LocID: 1}, {Peer: 0, LocID: 2},
		},
		Origin: 0,
	}
	net.cacheResponse(n1, rsp)
	ps := providers(n1.RI, f, net.Engine.Now())
	if len(ps) != 1 {
		t.Fatalf("dicas cached %d providers, want 1", len(ps))
	}
}

func TestDicasRoutingMisledByPartialQuery(t *testing.T) {
	// gidOfQuery equals gidOfName only when the query carries all keywords.
	f := fname("aaa", "bbb", "ccc")
	m := 64 // large M to make accidental collisions unlikely
	full := query("aaa", "bbb", "ccc")
	if gidOfQuery(full, m) != gidOfName(f, m) {
		t.Fatal("full-filename query must hash like the filename")
	}
	partial := query("aaa")
	if gidOfQuery(partial, m) == gidOfName(f, m) {
		t.Fatal("partial query accidentally matches (improbable with M=64); mechanism broken")
	}
}

func TestDicasKeysCachesPerQueryKeyword(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, DicasKeys{}, linePoints(4), lineEdges(4), cfg)
	f := fname("kx", "ky", "kz")
	q := query("kx", "ky")
	n1, n2 := net.Node(1), net.Node(2)
	net.gids[n1.ID] = int32(gidOfKeyword(kw("kx"), cfg.GroupCount))
	// Give node2 a gid matching neither query keyword.
	g2 := 0
	for g2 == gidOfKeyword(kw("kx"), cfg.GroupCount) || g2 == gidOfKeyword(kw("ky"), cfg.GroupCount) {
		g2++
	}
	net.gids[n2.ID] = int32(g2)

	rsp := &ResponseMsg{File: f, QueryKws: q, Providers: []cache.Provider{{Peer: 3, LocID: 0}}}
	net.cacheResponse(n1, rsp)
	net.cacheResponse(n2, rsp)
	now := net.Engine.Now()
	if providers(n1.RI, f, now) == nil {
		t.Fatal("keyword-group node did not cache")
	}
	if providers(n2.RI, f, now) != nil {
		t.Fatal("non-matching node cached")
	}
}

func TestLocawareCachesProvidersAndRequester(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(5), lineEdges(5), cfg)
	f := fname("loc", "aware")
	n2 := net.Node(2)
	net.gids[n2.ID] = int32(gidOfName(f, cfg.GroupCount))
	rsp := &ResponseMsg{
		File:      f,
		Providers: []cache.Provider{{Peer: 4, LocID: 7}},
		Origin:    0,
		OriginLoc: 3,
	}
	net.cacheResponse(n2, rsp)
	ps := providers(n2.RI, f, net.Engine.Now())
	if len(ps) != 2 {
		t.Fatalf("cached %d providers, want provider+requester: %+v", len(ps), ps)
	}
	foundOrigin := false
	for _, p := range ps {
		if p.Peer == 0 && p.LocID == 3 {
			foundOrigin = true
		}
	}
	if !foundOrigin {
		t.Fatal("requester not cached as new provider (§4.1.2)")
	}
}

func TestLocawareOnAnswerAddsRequester(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(3), lineEdges(3), cfg)
	f := fname("ans")
	n1 := net.Node(1)
	net.gids[n1.ID] = int32(gidOfName(f, cfg.GroupCount))
	pq := &pendingQuery{origin: 2, originLoc: 9}
	net.learn(n1, pq, f)
	ps := providers(n1.RI, f, net.Engine.Now())
	if len(ps) != 1 || ps[0].Peer != 2 || ps[0].LocID != 9 {
		t.Fatalf("learn cache = %+v", ps)
	}
	// Non-matching gid: no insertion.
	n0 := net.Node(0)
	net.gids[n0.ID] = (net.gids[n1.ID] + 1) % int32(cfg.GroupCount)
	net.learn(n0, pq, f)
	if providers(n0.RI, f, net.Engine.Now()) != nil {
		t.Fatal("non-matching gid node cached on answer")
	}
}

func TestLocawareSelectProviderPrefersLocality(t *testing.T) {
	cfg := DefaultConfig()
	// Requester at origin corner; two providers: same locId far away in
	// list, different locId first.
	pts := []netmodel.Point{{X: 50, Y: 50}, {X: 900, Y: 900}, {X: 60, Y: 60}}
	net := testNet(t, Locaware{}, pts, [][2]int{{0, 1}, {1, 2}}, cfg)
	req := net.Node(0)
	provs := []cache.Provider{
		{Peer: 1, LocID: req.Loc + 1},
		{Peer: 2, LocID: req.Loc},
	}
	got, ok := net.selectProvider(req, provs)
	if !ok || got.Peer != 2 {
		t.Fatalf("locality preference failed: %+v", got)
	}
}

func TestLocawareSelectProviderMinRTTFallback(t *testing.T) {
	cfg := DefaultConfig()
	pts := []netmodel.Point{{X: 50, Y: 50}, {X: 900, Y: 900}, {X: 100, Y: 100}, {X: 0, Y: 0}}
	net := testNet(t, Locaware{}, pts, [][2]int{{0, 1}, {1, 2}}, cfg)
	req := net.Node(0)
	// Neither provider shares the requester's locId; peer 2 is closer.
	provs := []cache.Provider{
		{Peer: 1, LocID: req.Loc + 1},
		{Peer: 2, LocID: req.Loc + 2},
	}
	got, ok := net.selectProvider(req, provs)
	if !ok || got.Peer != 2 {
		t.Fatalf("min-RTT fallback failed: got peer %d", got.Peer)
	}
	// Peers 2 and 3 are equally far: the first listed, the most recent,
	// wins the tie.
	tie := []cache.Provider{{Peer: 3, LocID: req.Loc + 3}, {Peer: 2, LocID: req.Loc + 2}}
	if got, _ := net.selectProvider(req, tie); got.Peer != 3 {
		t.Fatalf("an RTT tie went to peer %d, want the first listed, 3", got.Peer)
	}
	if _, ok := net.selectProvider(req, nil); ok {
		t.Fatal("empty provider list should fail")
	}
}

func TestChurnOfflineProvidersFiltered(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(4), lineEdges(4), cfg)
	req := net.Node(0)
	provs := []cache.Provider{{Peer: 3, LocID: req.Loc}}
	net.Graph.Leave(3)
	if _, ok := net.selectProvider(req, provs); ok {
		t.Fatal("selection should fail with all providers offline")
	}
}

func TestOfflineOriginDropsQuery(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	net.Graph.Leave(0)
	net.SubmitQuery(0, query("x"))
	runAll(net)
	rec := net.Collector.Records()[0]
	if rec.Success || rec.Messages != 0 {
		t.Fatalf("offline origin should produce a dead query: %+v", rec)
	}
}

// TestFinalizeSealsRecordOnce: a query's state is its own finalize event,
// posted once at submission, so a drained run has fired it once, sealed one
// record and put the state back on its free list.
func TestFinalizeSealsRecordOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FinalizeAfter = 5 * sim.Second
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	net.Node(2).AddFile(fname("seal"))
	fired := 0
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		if sim.EventName(ev) == "query-finalize" {
			fired++
		}
	})
	net.SubmitQuery(0, query("seal"))
	runAll(net)
	if fired != 1 || net.Collector.Submitted() != 1 {
		t.Fatalf("finalize fired %d times and sealed %d records, want 1 and 1", fired, net.Collector.Submitted())
	}
	if c := net.Counts(); c.Submitted != 1 || c.Finalized != 1 || c.PendingHighWater != 1 {
		t.Fatalf("counts = %+v, want one query submitted, finalised and in flight at most", c)
	}
	if net.pqPool.Len() != 1 {
		t.Fatalf("%d query states on the free list, want the one finalised", net.pqPool.Len())
	}
}

// TestStragglerAfterFinalizeIsDropped locks the one dead-query rule: with
// FinalizeAfter shorter than a link delay, the query is sealed while its
// first branch is still in flight; the branch then arrives at a peer that
// holds the file, and must be dropped whole — no answer, no message beyond
// the one counted at send time — which it is because finalisation zeroed
// the id of the state the branch points at.
func TestStragglerAfterFinalizeIsDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FinalizeAfter = sim.Millisecond // one-way link delay is >= 5ms + processing
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	net.Node(1).AddFile(fname("late"))
	var pq *pendingQuery
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		if p, ok := ev.(*pendingQuery); ok {
			pq = p
		}
	})
	net.SubmitQuery(0, query("late"))
	runAll(net)

	recs := net.Collector.Records()
	if len(recs) != 1 {
		t.Fatalf("sealed %d records, want 1", len(recs))
	}
	if recs[0].Success || recs[0].Messages != 1 {
		t.Fatalf("sealed record = %+v, want unanswered with the 1 message sent before sealing", recs[0])
	}
	// finalize + the one in-flight delivery: the dropped straggler neither
	// answered (a response hop) nor forwarded on to peer 2.
	if got := net.Engine.Scheduled(); got != 2 {
		t.Fatalf("scheduled %d events, want 2", got)
	}
	if pq == nil || pq.id != 0 {
		t.Fatalf("finalised query state %+v keeps its id, so its stragglers would still be handled", pq)
	}
	if c := net.Counts(); c.Finalized != c.Submitted {
		t.Fatalf("counts = %+v: a query is still pending", c)
	}
}

// TestStragglerOfRecycledStateIsDropped is the ABA case of the rule above:
// query A is sealed with a branch in flight, query B is submitted and
// reuses A's pooled state, and only then does A's branch land — on a peer
// that holds the file, while B is pending. The branch points at state that
// is live again, so only the id comparison tells it is stale. It must be
// dropped whole: no peer in B's seen set (which would make B's own branch
// a duplicate at that peer), no message on B's count, no response.
func TestStragglerOfRecycledStateIsDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FinalizeAfter = sim.Millisecond
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	net.Node(1).AddFile(fname("late"))
	q := query("late")

	net.SubmitQuery(0, q)
	var pqA *pendingQuery
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) { pqA, _ = ev.(*pendingQuery) })
	if net.Engine.Run(1); pqA == nil || net.Counts().Finalized != 1 {
		t.Fatal("fixture: A not sealed by the first event")
	}
	net.Config.FinalizeAfter = 30 * sim.Second // B outlives every message
	idB := net.SubmitQuery(2, q)
	pqB := pqA
	if pqB.id != idB {
		t.Fatal("fixture: B did not reuse A's pooled state")
	}
	scheduled := net.Engine.Scheduled()

	src := overlay.PeerID(-1)
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) { p := ev.(*QueryMsg).Path; src = p[len(p)-2] })
	net.Engine.Run(1)
	net.Engine.SetObserver(nil)
	if src != 0 {
		t.Fatalf("fixture: the next delivery came from peer %d, want A's branch from peer 0 ahead of B's", src)
	}
	if pqB.id != idB || pqB.messages != 1 {
		t.Fatalf("B's state after A's straggler: id %d messages %d, want id %d messages 1", pqB.id, pqB.messages, idB)
	}
	if in := seenPeers(pqB); !slices.Equal(in, []overlay.PeerID{2}) {
		t.Fatalf("B's seen set = %v, want only its origin, peer 2: A's straggler marked a peer", in)
	}
	if got := net.Engine.Scheduled(); got != scheduled {
		t.Fatalf("A's straggler scheduled %d events", got-scheduled)
	}

	runAll(net)
	recs := net.Collector.Records()
	if len(recs) != 2 {
		t.Fatalf("sealed %d records, want 2", len(recs))
	}
	if recs[0].Success || recs[0].Messages != 1 {
		t.Fatalf("A's record = %+v, want unanswered with 1 message", recs[0])
	}
	if !recs[1].Success || recs[1].Messages != 2 || recs[1].Hops != 1 {
		t.Fatalf("B's record = %+v, want answered by peer 1 in 1 hop and 2 messages", recs[1])
	}
}

// TestResponseOfRecycledStateIsDropped is the response-side ABA case: query
// A is answered two hops out, sealed while its response walks back, and its
// pooled state is recycled for query B before the response's last two
// deliveries. The response points at state that is live again, so only the
// id comparison tells it is stale: its hop from peer 1 must not count on B,
// and its arrival at A's origin must not complete B.
func TestResponseOfRecycledStateIsDropped(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(4), lineEdges(4), cfg)
	f := fname("late")
	net.Node(2).AddFile(f)
	net.Graph.Leave(3) // B's origin: its state is posted and never touched
	hop := func(a, b overlay.PeerID) sim.Time {
		return sim.FromMillis(net.Model.OneWay(int(a), int(b))) + cfg.ProcessingDelay
	}
	// A's response leaves peer 2 when the branch lands there and reaches
	// peer 1 one hop later; A is sealed half-way between.
	net.Config.FinalizeAfter = hop(0, 1) + hop(1, 2) + hop(1, 2)/2

	net.SubmitQuery(0, query("late"))
	var pqA *pendingQuery
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		if p, ok := ev.(*pendingQuery); ok {
			pqA = p
		}
	})
	for net.Counts().Finalized == 0 {
		net.Engine.Run(1)
	}
	net.Engine.SetObserver(nil)
	if queued(net.Engine) != 1 {
		t.Fatalf("fixture: %d events queued when A was sealed, want its one response", queued(net.Engine))
	}
	net.Config.FinalizeAfter = 30 * sim.Second
	idB := net.SubmitQuery(3, query("late"))
	if pqA.id != idB {
		t.Fatal("fixture: B did not reuse A's pooled state")
	}

	runAll(net)
	recs := net.Collector.Records()
	if len(recs) != 2 {
		t.Fatalf("sealed %d records, want 2", len(recs))
	}
	if recs[0].Success || recs[0].Messages != 3 {
		t.Fatalf("A's record = %+v, want unanswered with its 2 query hops and the 1 response hop sent before sealing", recs[0])
	}
	if recs[1].Success || recs[1].Messages != 0 {
		t.Fatalf("B's record = %+v, want unanswered with no message: A's response counted on or completed B", recs[1])
	}
	if _, ok := net.Node(0).fileIndex(f); ok {
		t.Fatal("A's origin downloaded the file after A was sealed")
	}
}

func TestHighestDegreeNeighborFallback(t *testing.T) {
	// Star: 1 is the hub (degree 3); from node 0, fallback must pick 1.
	cfg := DefaultConfig()
	pts := []netmodel.Point{{X: 100, Y: 100}, {X: 200, Y: 100}, {X: 300, Y: 100}, {X: 200, Y: 200}, {X: 50, Y: 50}}
	edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {0, 4}}
	net := testNet(t, Dicas{}, pts, edges, cfg)
	// The hub first, then the one other candidate.
	if out := net.fallbackNeighbors([]overlay.PeerID{1, 4}); !slices.Equal(out, []overlay.PeerID{1, 4}) {
		t.Fatalf("fallback = %v, want [1 4]", out)
	}
	// The hub is no candidate (on the path); falls to 4.
	if out := net.fallbackNeighbors([]overlay.PeerID{4}); len(out) != 1 || out[0] != 4 {
		t.Fatalf("fallback with exclusion = %v, want [4]", out)
	}
	if out := net.fallbackNeighbors(nil); out != nil {
		t.Fatalf("fallback with no candidate = %v, want nil", out)
	}
}

func TestOrderProvidersForOrigin(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(2), lineEdges(2), cfg)
	ps := []cache.Provider{
		{Peer: 1, LocID: 5},
		{Peer: 2, LocID: 3},
		{Peer: 3, LocID: 5},
		{Peer: 4, LocID: 1},
	}
	got := net.orderProvidersForOrigin(nil, ps, 5)
	if got[0].LocID != 5 || got[1].LocID != 5 {
		t.Fatalf("locality entries not first: %+v", got)
	}
	if len(got) != 4 {
		t.Fatalf("providers lost: %d", len(got))
	}
}

// TestSelectIndexMatchPrefersOriginLocality: locality outranks any
// provider count — a non-local match with 1 500 providers loses to a local
// one with 1, in either order — count breaks ties within a class, and of
// equals the earliest wins.
func TestSelectIndexMatchPrefersOriginLocality(t *testing.T) {
	net := testNet(t, Locaware{}, linePoints(2), lineEdges(2), DefaultConfig())
	crowd := make([]cache.Provider, 1500)
	for i := range crowd {
		crowd[i] = cache.Provider{Peer: overlay.PeerID(i + 10), LocID: 1}
	}
	local := []cache.Provider{{Peer: 4, LocID: 7}}
	cases := []struct {
		ms   []cache.Match
		want string
	}{
		{[]cache.Match{{File: fname("many"), Providers: crowd[:3]}, {File: fname("right"), Providers: local}}, "right"},
		{[]cache.Match{{File: fname("many"), Providers: crowd}, {File: fname("right"), Providers: local}}, "right"},
		{[]cache.Match{{File: fname("right"), Providers: local}, {File: fname("many"), Providers: crowd}}, "right"},
		{[]cache.Match{{File: fname("right"), Providers: local}, {File: fname("pop"), Providers: append(crowd[:1:1], local...)}}, "pop"},
		{[]cache.Match{{File: fname("aaa"), Providers: crowd[:2]}, {File: fname("bbb"), Providers: crowd[2:4]}}, "aaa"},
	}
	for _, c := range cases {
		if got := net.selectIndexMatch(c.ms, 7); got.File != fname(c.want) {
			t.Fatalf("selected %v of %d matches, want %q", got.File, len(c.ms), c.want)
		}
	}
}

func TestGidHelpers(t *testing.T) {
	m := 8
	f := fname("k1", "k2", "k3")
	g := gidOfName(f, m)
	if g < 0 || g >= m {
		t.Fatalf("gid %d out of range", g)
	}
	if gidOfName(f, m) != g {
		t.Fatal("gid not deterministic")
	}
	if gidOfKeyword(kw("k1"), m) < 0 || gidOfKeyword(kw("k1"), m) >= m {
		t.Fatal("keyword gid out of range")
	}
}

// TestGidOfQueryHashesTheFilenameString locks gidOfQuery's in-place hash to
// its definition: the Gid of the filename the query's keywords would spell.
func TestGidOfQueryHashesTheFilenameString(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pool := keywords.NewPool(500)
	for i := 0; i < 3000; i++ {
		q := keywords.ExtractQuery(pool.RandomFilename(3, r), r)
		var ids []keywords.ID
		for i := range q.K() {
			ids = append(ids, q.KeywordAt(i))
		}
		name := keywords.NewFilename(ids...)
		for _, m := range []int{1, 4, 7} {
			if got, want := gidOfQuery(q, m), gidOfName(name, m); got != want {
				t.Fatalf("gidOfQuery(%v, %d) = %d, gidOfName(%v) = %d", q, m, got, name, want)
			}
		}
	}
	if got, want := gidOfQuery(keywords.Query{}, 4), gidOfName(keywords.NewFilename(), 4); got != want {
		t.Fatalf("empty query: gid %d, want %d", got, want)
	}
}

func TestNetworkStringAndAccessors(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(3), lineEdges(3), cfg)
	if net.String() == "" {
		t.Fatal("empty String")
	}
	if net.Node(1).ID != 1 {
		t.Fatal("Node accessor broken")
	}
	if len(net.Node(0).files) != 0 || net.StaleBloomFallbacks() != 0 {
		t.Fatal("fresh node has files, or the vestigial stale-fallback count is not 0")
	}
	n, f := net.Node(0), fname("file")
	n.AddFile(f)
	if !n.RemoveFile(f) || n.RemoveFile(f) || len(n.files) != 0 {
		t.Fatalf("storage after adding and removing %v twice: %v", f, n.files)
	}
}

// eventLog is a Tracer keeping every event, spelt, in emission order.
type eventLog []trace.Event

func (l *eventLog) Emit(r trace.Record) { *l = append(*l, r.Event()) }
func (l *eventLog) Phase(e trace.Event) { *l = append(*l, e) }

// checkStory requires the logged events, each as "query:kind span<-parent
// peer from detail", to be want in emission order and time order.
func checkStory(t *testing.T, buf *eventLog, want []string) {
	t.Helper()
	var got []string
	for i, e := range *buf {
		if i > 0 && e.At < (*buf)[i-1].At {
			t.Fatalf("event %d (%v) precedes its predecessor in time", i, e.Kind)
		}
		got = append(got, fmt.Sprintf("%d:%v %d<-%d peer %d from %d %s", e.Query, e.Kind, e.Span, e.Parent, e.Peer, e.From, e.Detail))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTracingLifecycle: a query's events form the span tree trace.Event
// documents. Forwards hang under the forward that delivered the query to
// their sender, a hit under the forward it arrived on, each response hop
// under the previous one, a cached entry and the download under the hop that
// delivered the response, and the finalize under the root. A phase entry
// belongs to no query and no peer. A hit at the origin itself, in its storage
// (query 2: query 1 replicated the file there) or its response index
// (query 3), hangs under the root and crosses no link.
func TestTracingLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupCount = 1 // every peer caches every response
	net := testNet(t, Dicas{}, linePoints(4), lineEdges(4), cfg)
	buf := &eventLog{}
	if net.SetTracer(buf); !net.TraceEnabled() {
		t.Fatal("a network with a tracer reports tracing disabled")
	}
	net.EmitControl(trace.PhaseEnter, "phase=warm")
	net.Node(3).AddFile(fname("traced", "file"))
	net.SubmitQuery(0, query("traced"))
	runAll(net)
	net.SubmitQuery(0, query("traced", "file"))
	net.Node(1).RI.Put(fname("held"), 2, net.Node(2).Loc, net.Engine.Now())
	net.SubmitQuery(1, query("held"))
	runAll(net)
	checkStory(t, buf, []string{
		"0:phase 0<-0 peer -1 from -1 phase=warm",
		"1:submit 1<-0 peer 0 from -1 q{kw00040}",
		"1:forward 2<-1 peer 1 from 0 ",
		"1:forward 3<-2 peer 2 from 1 ",
		"1:forward 4<-3 peer 3 from 2 ",
		"1:storage-hit 5<-4 peer 3 from 2 kw00014_kw00040",
		"1:response-hop 6<-5 peer 2 from 3 ",
		"1:cached 7<-6 peer 2 from -1 kw00014_kw00040",
		"1:response-hop 8<-6 peer 1 from 2 ",
		"1:cached 9<-8 peer 1 from -1 kw00014_kw00040",
		"1:response-hop 10<-8 peer 0 from 1 ",
		"1:cached 11<-10 peer 0 from -1 kw00014_kw00040",
		"1:download 12<-10 peer 0 from 3 kw00014_kw00040 rtt=243.9ms sameLoc=false",
		"1:finalize 13<-1 peer 0 from -1 ",
		"2:submit 1<-0 peer 0 from -1 q{kw00014,kw00040}",
		"2:storage-hit 2<-1 peer 0 from -1 kw00014_kw00040",
		"3:submit 1<-0 peer 1 from -1 q{kw00017}",
		"3:cache-hit 2<-1 peer 1 from -1 kw00017",
		"3:download 3<-2 peer 1 from 2 kw00017 rtt=88.0ms sameLoc=true",
		"2:finalize 3<-1 peer 0 from -1 ",
		"3:finalize 4<-1 peer 1 from -1 ",
	})
}

// TestTracingFailureAndDuplicate: on a diamond each of peers 2 and 3 hears
// the query twice and drops the later copy, under the forward it arrived
// on; the failure and the finalize hang under the root.
func TestTracingFailureAndDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, []netmodel.Point{{X: 100, Y: 100}, {X: 200, Y: 50}, {X: 200, Y: 150}, {X: 300, Y: 100}},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, cfg)
	buf := &eventLog{}
	net.SetTracer(buf)
	net.SubmitQuery(0, query("absent"))
	runAll(net)
	checkStory(t, buf, []string{
		"1:submit 1<-0 peer 0 from -1 q{kw00001}",
		"1:forward 2<-1 peer 1 from 0 ",
		"1:forward 3<-1 peer 2 from 0 ",
		"1:forward 4<-2 peer 3 from 1 ",
		"1:forward 5<-3 peer 3 from 2 ",
		"1:forward 6<-4 peer 2 from 3 ",
		"1:duplicate 7<-5 peer 3 from 2 ",
		"1:duplicate 8<-6 peer 2 from 3 ",
		"1:failed 9<-1 peer 0 from -1 ",
		"1:finalize 10<-1 peer 0 from -1 ",
	})
}

func TestTracingGossip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = 2 * sim.Second
	net := testNet(t, Locaware{}, linePoints(3), lineEdges(3), cfg)
	buf := &eventLog{}
	net.SetTracer(buf)
	f := fname("gossiped")
	n1 := net.Node(1)
	net.gids[n1.ID] = int32(gidOfName(f, cfg.GroupCount))
	n1.RI.Put(f, 2, 0, 0)
	net.Engine.RunUntil(3*sim.Second, 0)
	// Neighbour copies installed after delivery.
	if net.Node(0).NeighborBloom(1) == nil {
		t.Fatal("neighbour BF copy not installed")
	}
	if net.Node(0).NeighborBloom(2) != nil {
		t.Fatal("non-neighbour BF copy installed")
	}
}

// TestWarmupQueriesStayUnrecorded: warmup query 1 (answerable) is still in
// flight when measured query 2 (unanswerable) is submitted, and only query 2
// reaches the run's collector.
func TestWarmupQueriesStayUnrecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FinalizeAfter = 10 * sim.Second
	net := testNet(t, Flooding{}, linePoints(4), lineEdges(4), cfg)
	col := metrics.NewCollector()
	net.Measure(col, 1)
	net.Node(3).AddFile(fname("late"))
	net.SubmitQuery(0, query("late"))
	net.Engine.RunUntil(sim.Second, 0)
	if c := net.Counts(); c.Submitted != 1 || c.Finalized != 0 {
		t.Fatalf("fixture: warmup query not in flight: %+v", c)
	}
	net.SubmitQuery(0, query("absent"))
	runAll(net)
	if net.Collector != col || col.Submitted() != 1 || col.SuccessRate() != 0 {
		t.Fatalf("collector recorded %d queries at success %.2f, want only the unanswered measured one",
			col.Submitted(), col.SuccessRate())
	}
	if c := net.Counts(); c.Finalized != 2 {
		t.Fatalf("finalised %d queries, want both", c.Finalized)
	}
}

func TestFallbackFanoutRespected(t *testing.T) {
	cfg := DefaultConfig()
	// Star: node 0 has 4 neighbours, none matching any predicate for an
	// absent keyword, so fallback fires.
	pts := []netmodel.Point{{X: 100, Y: 100}, {X: 200, Y: 100}, {X: 150, Y: 200}, {X: 50, Y: 200}, {X: 100, Y: 20}}
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	net := testNet(t, Dicas{}, pts, edges, cfg)
	// Force all neighbours to a non-matching Gid.
	q := testBranch(net, query("zzz"), 0)
	for i := 1; i <= 4; i++ {
		net.gids[i] = (q.pq.gid + 1) % int32(cfg.GroupCount)
	}
	targets := net.targets(0, q.pq, eligOf(net, q))
	if len(targets) != fallbackFanout {
		t.Fatalf("fallback fanout produced %d targets, want %d", len(targets), fallbackFanout)
	}
	seen := map[overlay.PeerID]bool{}
	for _, tg := range targets {
		if seen[tg] {
			t.Fatal("duplicate fallback target")
		}
		seen[tg] = true
	}
}

// TestIDHashesMatchSpellings locks the interned keywords to the strings
// they replaced: for every keyword of pools at the paper's size and at both
// ends of the allowed range, the Bloom positions, gidOfKeyword, gidOfName
// and gidOfQuery equal what hashing the kw%05d spellings gives — the sorted
// spellings joined by '_' for a name — so every digest stays the same.
func TestIDHashesMatchSpellings(t *testing.T) {
	nodes, _ := newNodes(1, cache.DefaultConfig(), true, 1200, 8)
	n := &nodes[0]
	fnv := func(s string, m int) int {
		h := uint32(2166136261)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		return int(h % uint32(m))
	}
	for _, size := range []int{20, 9000, keywords.MaxPool} {
		for id := 0; id < size; id++ {
			ids := []keywords.ID{keywords.ID(id), keywords.ID((id*7919 + 1) % size), keywords.ID((int64(id)*104729 + 2) % int64(size))}
			words := make([]string, len(ids))
			for i, k := range ids {
				words[i] = fmt.Sprintf("kw%05d", k)
			}
			if got, want := n.bloomPositions(nil, keywords.NewQuery(ids[0])), n.shared.scratch.AppendIndexes(nil, words[0]); !slices.Equal(got, want) {
				t.Fatalf("pool %d: Bloom positions of %s = %v, want %v", size, words[0], got, want)
			}
			slices.Sort(words)
			name := strings.Join(slices.Compact(words), "_")
			for _, m := range []int{4, 7} {
				if got, want := gidOfKeyword(ids[0], m), fnv(fmt.Sprintf("kw%05d", id), m); got != want {
					t.Fatalf("pool %d: gidOfKeyword(%d, %d) = %d, want %d", size, id, m, got, want)
				}
				if got, want := gidOfName(keywords.NewFilename(ids...), m), fnv(name, m); got != want {
					t.Fatalf("pool %d: gidOfName(%s, %d) = %d, want %d", size, name, m, got, want)
				}
				if got, want := gidOfQuery(keywords.NewQuery(ids...), m), fnv(name, m); got != want {
					t.Fatalf("pool %d: gidOfQuery(%s, %d) = %d, want %d", size, name, m, got, want)
				}
			}
		}
	}
}

// TestConfigFallbacks: the protocol plane's defaults are stated once, in
// DefaultConfig — the paper's TTL 7 and M 4, a 30 s finalize and fallback
// fanout 2 — and NewNetwork runs them as given.
func TestConfigFallbacks(t *testing.T) {
	eng := sim.NewEngine()
	pts := linePoints(2)
	model := netmodel.NewModel(pts, 1000, netmodel.LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	lm := netmodel.FixedLandmarks([]netmodel.Point{{X: 0, Y: 0}, {X: 1000, Y: 1000}})
	loc := netmodel.NewLocator(model, lm)
	g := overlay.NewGraph(2)
	_ = g.AddLink(0, 1)
	net := NewNetwork(eng, g, model, loc, Flooding{}, DefaultConfig(), rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
	c := net.Config
	if c.TTL != 7 || c.GroupCount != 4 || c.FinalizeAfter != 30*sim.Second {
		t.Fatalf("defaults are not the paper's: %+v", c)
	}
	// Under Bloom routing any positive gossip period, one tick too, posts
	// the first round, unless there is no peer to gossip.
	c.BloomGossipPeriod = 1
	for peers := range 2 {
		if lw := testNet(t, Locaware{}, linePoints(peers), nil, c); queued(lw.Engine) != uint64(peers) {
			t.Fatalf("a 1-tick gossip period over %d peers posted %d events, want %d", peers, queued(lw.Engine), peers)
		}
	}
}

package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

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
	pq := &pendingQuery{
		q: q, sig: querySig(q), gid: int32(gidOfQuery(q, net.Config.GroupCount)), origin: origin.ID, originLoc: origin.Loc,
		kwIdx: origin.bloomPositions(nil, q),
	}
	return &QueryMsg{net: net, pq: pq, TTL: int32(net.Config.TTL - (len(path) - 1)), Path: path}
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

func TestFloodingFindsStorageHit(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(5), lineEdges(5), cfg)
	f := fname("needle", "in", "stack")
	net.Node(4).AddFile(f)

	net.SubmitQuery(0, query("needle"))
	runAll(net)

	c := net.Collector
	if c.Submitted() != 1 {
		t.Fatalf("submitted = %d", c.Submitted())
	}
	if c.SuccessRate() != 1 {
		t.Fatal("query should succeed over a 4-hop line within TTL 7")
	}
	recs := c.Records()
	if recs[0].Hops != 4 {
		t.Fatalf("hops = %d, want 4", recs[0].Hops)
	}
	// Line of 5: 4 query forwards + 4 response hops = 8 messages.
	if recs[0].Messages != 8 {
		t.Fatalf("messages = %d, want 8", recs[0].Messages)
	}
	// The requester became a provider (natural replication, §3.1).
	if _, ok := net.Node(0).fileIndex(f); !ok {
		t.Fatal("requester did not become a provider")
	}
}

func TestFloodingTTLBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 3
	net := testNet(t, Flooding{}, linePoints(6), lineEdges(6), cfg)
	net.Node(5).AddFile(fname("far"))
	net.SubmitQuery(0, query("far"))
	runAll(net)
	if net.Collector.SuccessRate() != 0 {
		t.Fatal("TTL 3 must not reach 5 hops away")
	}
	// Messages: exactly TTL forwards down the line.
	if got := net.Collector.Records()[0].Messages; got != 3 {
		t.Fatalf("messages = %d, want 3", got)
	}
}

func TestFloodingDuplicateSuppression(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. Node 3 receives the query twice but
	// must process it once; total sends still counted.
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, []netmodel.Point{{X: 100, Y: 100}, {X: 200, Y: 50}, {X: 200, Y: 150}, {X: 300, Y: 100}},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, cfg)
	net.Node(3).AddFile(fname("dup"))
	net.SubmitQuery(0, query("dup"))
	runAll(net)
	recs := net.Collector.Records()
	if !recs[0].Success {
		t.Fatal("diamond search failed")
	}
	// 0→1, 0→2 (2 msgs); 1→3, 2→3 (2 msgs); node 3 answers once; response
	// 2 hops. Second arrival at 3 is suppressed (no further traffic).
	// Also 1→... and 2→... only have neighbor 3 beyond sender. Total = 4
	// query + 2 response = 6.
	if recs[0].Messages != 6 {
		t.Fatalf("messages = %d, want 6", recs[0].Messages)
	}
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

func TestQueryFailureRecorded(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(3), lineEdges(3), cfg)
	net.SubmitQuery(0, query("absent"))
	runAll(net)
	rec := net.Collector.Records()[0]
	if rec.Success {
		t.Fatal("phantom success")
	}
	if rec.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (line flood)", rec.Messages)
	}
}

func TestDicasCachingGidPlacement(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Dicas{}, linePoints(5), lineEdges(5), cfg)
	f := fname("dicas", "file")
	net.Node(4).AddFile(f)
	want := gidOfName(f, cfg.GroupCount)
	// Arrange Gids: nodes 1 and 3 match, 2 does not.
	net.Node(0).Gid = (want + 1) % cfg.GroupCount
	net.Node(1).Gid = want
	net.Node(2).Gid = (want + 1) % cfg.GroupCount
	net.Node(3).Gid = want
	net.Node(4).Gid = (want + 1) % cfg.GroupCount

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
	n1.Gid = gidOfName(f, cfg.GroupCount)
	rsp := &ResponseMsg{
		File: f,
		Providers: []cache.Provider{
			{Peer: 2, LocID: 1}, {Peer: 0, LocID: 2},
		},
		Origin: 0,
	}
	Dicas{}.CacheResponse(net, n1, rsp)
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
	n1.Gid = gidOfKeyword(kw("kx"), cfg.GroupCount)
	// Give node2 a gid matching neither query keyword.
	g2 := 0
	for g2 == gidOfKeyword(kw("kx"), cfg.GroupCount) || g2 == gidOfKeyword(kw("ky"), cfg.GroupCount) {
		g2++
	}
	n2.Gid = g2

	rsp := &ResponseMsg{File: f, QueryKws: q, Providers: []cache.Provider{{Peer: 3, LocID: 0}}}
	DicasKeys{}.CacheResponse(net, n1, rsp)
	DicasKeys{}.CacheResponse(net, n2, rsp)
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
	n2.Gid = gidOfName(f, cfg.GroupCount)
	rsp := &ResponseMsg{
		File:      f,
		Providers: []cache.Provider{{Peer: 4, LocID: 7}},
		Origin:    0,
		OriginLoc: 3,
	}
	Locaware{}.CacheResponse(net, n2, rsp)
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
	n1.Gid = gidOfName(f, cfg.GroupCount)
	q := &QueryMsg{pq: &pendingQuery{origin: 2, originLoc: 9}}
	Locaware{}.OnAnswer(net, n1, q, f)
	ps := providers(n1.RI, f, net.Engine.Now())
	if len(ps) != 1 || ps[0].Peer != 2 || ps[0].LocID != 9 {
		t.Fatalf("OnAnswer cache = %+v", ps)
	}
	// Non-matching gid: no insertion.
	n0 := net.Node(0)
	n0.Gid = (n1.Gid + 1) % cfg.GroupCount
	Locaware{}.OnAnswer(net, n0, q, f)
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
	got, ok := Locaware{}.SelectProvider(net, req, provs)
	if !ok || got.Peer != 2 {
		t.Fatalf("locality preference failed: %+v", got)
	}
}

func TestLocawareSelectProviderMinRTTFallback(t *testing.T) {
	cfg := DefaultConfig()
	pts := []netmodel.Point{{X: 50, Y: 50}, {X: 900, Y: 900}, {X: 100, Y: 100}}
	net := testNet(t, Locaware{}, pts, [][2]int{{0, 1}, {1, 2}}, cfg)
	req := net.Node(0)
	// Neither provider shares the requester's locId; peer 2 is closer.
	provs := []cache.Provider{
		{Peer: 1, LocID: req.Loc + 1},
		{Peer: 2, LocID: req.Loc + 2},
	}
	got, ok := Locaware{}.SelectProvider(net, req, provs)
	if !ok || got.Peer != 2 {
		t.Fatalf("min-RTT fallback failed: got peer %d", got.Peer)
	}
	if _, ok := (Locaware{}).SelectProvider(net, req, nil); ok {
		t.Fatal("empty provider list should fail")
	}
}

func TestBloomGossipAndRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = 5 * sim.Second
	net := testNet(t, Locaware{}, linePoints(4), lineEdges(4), cfg)
	f := fname("bloomy", "file")
	n2 := net.Node(2)
	n2.Gid = gidOfName(f, cfg.GroupCount)
	n2.RI.Put(f, 3, 0, 0)

	// Before gossip, node 2 has announced no BF -> no match.
	n1 := net.Node(1)
	kw := query("bloomy")
	q := testBranch(net, kw, 0, 1)
	targets := Locaware{}.Forward(net, n1, q, eligOf(net, q))
	for _, tgt := range targets {
		if tgt == 2 {
			if n2.announced != nil {
				t.Fatal("node 2 announced a BF before gossip")
			}
		}
	}
	// Run past one gossip period; now BF matches and routing prefers 2.
	net.Engine.RunUntil(6*sim.Second, 0)
	targets = Locaware{}.Forward(net, n1, q, eligOf(net, q))
	if len(targets) != 1 || targets[0] != 2 {
		t.Fatalf("BF routing targets = %v, want [2]", targets)
	}
	if net.ControlMessages() == 0 {
		t.Fatal("gossip produced no control messages")
	}
	if net.ControlBits() == 0 {
		t.Fatal("gossip accounted no delta bits")
	}
}

func TestLocawareEndToEndCacheHit(t *testing.T) {
	// First query populates caches, second query (from a different peer)
	// must hit a cached index before reaching storage.
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = time1s()
	net := testNet(t, Locaware{}, linePoints(6), lineEdges(6), cfg)
	f := fname("pop", "song")
	net.Node(5).AddFile(f)
	// Make middle nodes cache-eligible.
	want := gidOfName(f, cfg.GroupCount)
	for i := overlay.PeerID(1); i <= 4; i++ {
		net.Node(i).Gid = want
	}
	net.SubmitQuery(0, query("pop"))
	net.Engine.RunUntil(40*sim.Second, 0)
	// Caches along the path now hold f with providers {5, 0}.
	cached := 0
	for i := overlay.PeerID(1); i <= 4; i++ {
		if providers(net.Node(i).RI, f, net.Engine.Now()) != nil {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("no reverse-path node cached the response")
	}
	before := net.Collector.Submitted()
	_ = before
	net.SubmitQuery(1, query("song"))
	net.Engine.RunUntil(80*sim.Second, 0)
	recs := net.Collector.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if !recs[1].Success {
		t.Fatal("second query failed despite cached indexes")
	}
	if recs[1].Messages >= recs[0].Messages+3 {
		t.Fatalf("cached query not cheaper: first=%d second=%d", recs[0].Messages, recs[1].Messages)
	}
}

func time1s() sim.Time { return sim.Second }

func TestChurnOfflineProvidersFiltered(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Locaware{}, linePoints(4), lineEdges(4), cfg)
	req := net.Node(0)
	provs := []cache.Provider{{Peer: 3, LocID: req.Loc}}
	net.Graph.Leave(3)
	if live := net.liveProviders(provs); len(live) != 0 {
		t.Fatal("offline provider not filtered")
	}
	if _, ok := (Locaware{}).SelectProvider(net, req, net.liveProviders(provs)); ok {
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

func TestBehaviorNamesAndBloomFlags(t *testing.T) {
	cases := []struct {
		b     Behavior
		name  string
		bloom bool
	}{
		{Flooding{}, "Flooding", false},
		{Dicas{}, "Dicas", false},
		{DicasKeys{}, "Dicas-Keys", false},
		{Locaware{}, "Locaware", true},
	}
	for _, c := range cases {
		if c.b.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.b.Name(), c.name)
		}
		if c.b.UsesBloom() != c.bloom {
			t.Errorf("%s UsesBloom = %v", c.name, c.b.UsesBloom())
		}
	}
}

func TestCacheConfigAdaptation(t *testing.T) {
	base := cache.DefaultConfig()
	if got := (Dicas{}).CacheConfig(base); got.MaxProvidersPerFile != 1 {
		t.Fatal("dicas should keep one provider per file")
	}
	if got := (DicasKeys{}).CacheConfig(base); got.MaxProvidersPerFile != 1 {
		t.Fatal("dicas-keys should keep one provider per file")
	}
	if got := (Locaware{}).CacheConfig(base); got.MaxProvidersPerFile != base.MaxProvidersPerFile {
		t.Fatal("locaware should keep multi-provider bound")
	}
	if got := (Flooding{}).CacheConfig(base); got.MaxFilenames != 1 {
		t.Fatal("flooding cache should be degenerate")
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
	if len(net.Nodes()) != 3 {
		t.Fatal("Nodes accessor broken")
	}
	if net.Node(1).ID != 1 {
		t.Fatal("Node accessor broken")
	}
	if len(net.Node(0).files) != 0 {
		t.Fatal("fresh node has files")
	}
}

// eventLog is a Tracer keeping every event in emission order.
type eventLog []trace.Event

func (l *eventLog) Emit(e trace.Event) { *l = append(*l, e) }

// countKind returns how many of the logged events have kind k.
func countKind(buf *eventLog, k trace.Kind) int {
	n := 0
	for _, e := range *buf {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestTracingLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	net := testNet(t, Flooding{}, linePoints(4), lineEdges(4), cfg)
	buf := &eventLog{}
	net.SetTracer(buf)
	f := fname("traced", "file")
	net.Node(3).AddFile(f)
	net.SubmitQuery(0, query("traced"))
	runAll(net)

	if countKind(buf, trace.QuerySubmit) != 1 {
		t.Fatalf("submits = %d", countKind(buf, trace.QuerySubmit))
	}
	if countKind(buf, trace.QueryForward) != 3 {
		t.Fatalf("forwards = %d, want 3 (line)", countKind(buf, trace.QueryForward))
	}
	if countKind(buf, trace.StorageHit) != 1 {
		t.Fatalf("storage hits = %d", countKind(buf, trace.StorageHit))
	}
	if countKind(buf, trace.ResponseHop) != 3 {
		t.Fatalf("response hops = %d", countKind(buf, trace.ResponseHop))
	}
	if countKind(buf, trace.DownloadComplete) != 1 {
		t.Fatalf("downloads = %d", countKind(buf, trace.DownloadComplete))
	}
	if countKind(buf, trace.QueryFailed) != 0 {
		t.Fatal("successful query traced as failed")
	}
	// Events for query 1 are a coherent story in time order.
	evs := *buf // the run's only query
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not in time order")
		}
	}
}

func TestTracingFailureAndDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	// Diamond so node 3 sees a duplicate.
	net := testNet(t, Flooding{}, []netmodel.Point{{X: 100, Y: 100}, {X: 200, Y: 50}, {X: 200, Y: 150}, {X: 300, Y: 100}},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, cfg)
	buf := &eventLog{}
	net.SetTracer(buf)
	net.SubmitQuery(0, query("absent"))
	runAll(net)
	if countKind(buf, trace.QueryFailed) != 1 {
		t.Fatalf("failed = %d", countKind(buf, trace.QueryFailed))
	}
	if countKind(buf, trace.QueryDuplicate) == 0 {
		t.Fatal("diamond should produce a duplicate delivery")
	}
}

func TestTracingGossip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = 2 * sim.Second
	net := testNet(t, Locaware{}, linePoints(3), lineEdges(3), cfg)
	buf := &eventLog{}
	net.SetTracer(buf)
	f := fname("gossiped")
	n1 := net.Node(1)
	n1.Gid = gidOfName(f, cfg.GroupCount)
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
		net.Node(overlay.PeerID(i)).Gid = (int(q.pq.gid) + 1) % cfg.GroupCount
	}
	targets := Dicas{}.Forward(net, net.Node(0), q, eligOf(net, q))
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
	n := nodes[0]
	fnv := func(s string, m int) int {
		h := uint32(2166136261)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		return int(h % uint32(m))
	}
	for _, size := range []int{20, 9000, keywords.MaxPool} {
		for id := 0; id < size; id++ {
			ids := []keywords.ID{keywords.ID(id), keywords.ID((id*7919 + 1) % size), keywords.ID((id*104729 + 2) % size)}
			words := make([]string, len(ids))
			for i, k := range ids {
				words[i] = fmt.Sprintf("kw%05d", k)
			}
			if got, want := n.bloomPositions(nil, keywords.NewQuery(ids[0])), n.bf.AppendIndexes(nil, words[0]); !slices.Equal(got, want) {
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

func TestDicasKeysRoutingKeyword(t *testing.T) {
	q := query("zeta", "alpha")
	if routingKeyword(q) != query("alpha") {
		t.Fatalf("routing keyword = %v, want canonical first", routingKeyword(q))
	}
	if routingKeyword(keywords.Query{}) != (keywords.Query{}) {
		t.Fatal("empty query routing keyword should be empty")
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
}

// TestLateBloomInstallIsWhatWasSent: an install event owns the copy of
// the announcement it was sent with, so one that fires after two more
// announcements installs what it carried, not the sender's newer filter,
// and a later install replaces it with what that one carried.
func TestLateBloomInstallIsWhatWasSent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BloomGossipPeriod = 0
	net := testNet(t, Locaware{}, linePoints(2), lineEdges(2), cfg)
	n := net.Node(0)
	// publish caches a filename of the given keyword and announces it.
	publish := func(kw string) {
		n.RI.Put(fname(kw), 1, 0, 0)
		if n.PublishBloom(nil).Empty() {
			t.Fatalf("adding %q announced nothing", kw)
		}
	}
	publish("alpha")
	sent := CloneFilter(net, n.announced)
	late := net.acquireBloomInstall(1, n)
	publish("far")
	publish("song")
	late.Fire(net.Engine)
	got := net.Node(1).NeighborBloom(0)
	if got == nil || !got.Equal(sent) {
		t.Fatal("the late install did not install the announcement it was sent with")
	}
	if got.Equal(n.announced) || got == n.announced {
		t.Fatal("the late install picked up the sender's newer announcement")
	}
	publish("zeta")
	net.acquireBloomInstall(1, n).Fire(net.Engine)
	if got := net.Node(1).NeighborBloom(0); !got.Equal(n.announced) || got == n.announced {
		t.Fatal("a later install did not replace the copy with its own")
	}
}

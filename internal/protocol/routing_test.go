package protocol

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// recordingBehavior is Flooding that forwards nothing and keeps the
// candidate slice each Forward call was handed.
type recordingBehavior struct {
	Flooding
	elig  []overlay.PeerID
	calls int
}

func (r *recordingBehavior) Forward(_ *Network, _ overlay.PeerID, _ *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	r.elig = append(r.elig[:0], elig...)
	r.calls++
	return nil
}

// randomSimplePath walks g from a random peer over unvisited neighbours for
// up to maxHops hops; it stops early at a dead end.
func randomSimplePath(g *overlay.Graph, maxHops int, r *rand.Rand) []overlay.PeerID {
	path := []overlay.PeerID{overlay.PeerID(r.Intn(g.N()))}
	for hops := r.Intn(maxHops + 1); hops > 0; hops-- {
		var next []overlay.PeerID
		for _, nb := range g.Neighbors(path[len(path)-1]) {
			if !slices.Contains(path, nb) {
				next = append(next, nb)
			}
		}
		if len(next) == 0 {
			break
		}
		path = append(path, next[r.Intn(len(next))])
	}
	return path
}

// TestForwardCandidatesMatchDeletedPredicate: over random overlays and
// random simple paths, the candidate slice forward hands the behaviour is,
// in neighbour order, what the per-behaviour loops used to compute —
// neither the sender nor any peer on the path.
func TestForwardCandidatesMatchDeletedPredicate(t *testing.T) {
	nonEmpty := 0
	for seed := int64(1); seed <= 5; seed++ {
		rec := &recordingBehavior{}
		net, _ := randomNet(t, rec, seed, 150)
		r := rand.New(rand.NewSource(seed * 31))
		if seed > 3 { // a churned overlay: peers gone, others rewired
			for i := 0; i < 5; i++ {
				overlay.ChurnStep(net.Graph, overlay.DefaultChurn(), r)
			}
		}
		for i := 0; i < 400; i++ {
			// TTL-1 hops at most, so the branch still has budget to forward.
			path := randomSimplePath(net.Graph, net.Config.TTL-1, r)
			q := testBranch(net, query("k"), path...)
			calls := rec.calls
			net.forward(path[len(path)-1], q)
			if rec.calls != calls+1 {
				t.Fatalf("seed %d path %v: forward called the behaviour %d times", seed, path, rec.calls-calls)
			}
			if want := eligOf(net, q); !slices.Equal(rec.elig, want) {
				t.Fatalf("seed %d path %v: candidates %v, want %v", seed, path, rec.elig, want)
			}
			if len(rec.elig) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("only %d of 2000 hops had a candidate; the fixture is not exercising the scan", nonEmpty)
	}
}

// refFallback is the pair of functions fallbackNeighbors replaced, kept as
// they were (scratch buffers aside) as the reference: the highest-degree
// eligible neighbour by its own pass over the neighbours, then a second pass
// for the random extras. It returns the targets and what it would have added
// to ForwardStats.Fallback.
func refFallback(net *Network, rng *rand.Rand, n *Node, q *QueryMsg, from overlay.PeerID) ([]overlay.PeerID, uint64) {
	best, bestDeg := overlay.PeerID(-1), -1
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || slices.Contains(q.Path, nb) || !net.Graph.Online(nb) {
			continue
		}
		if d := net.Graph.Degree(nb); d > bestDeg {
			best, bestDeg = nb, d
		}
	}
	if best < 0 {
		return nil, 0
	}
	var eligible []overlay.PeerID
	for _, nb := range net.Graph.Neighbors(n.ID) {
		if nb == from || slices.Contains(q.Path, nb) || !net.Graph.Online(nb) {
			continue
		}
		eligible = append(eligible, nb)
	}
	out := []overlay.PeerID{best}
	if len(eligible) == 1 {
		return out, 1
	}
	var rest []overlay.PeerID
	for _, nb := range eligible {
		if nb != best {
			rest = append(rest, nb)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	extra := fallbackFanout - 1
	if extra > len(rest) {
		extra = len(rest)
	}
	out = append(out, rest[:extra]...)
	return out, uint64(len(out))
}

// TestFallbackMatchesTwoPassReference: over random overlays with departed
// peers, the single-pass fallbackNeighbors returns the reference's targets
// in its order, adds the same to ForwardStats.Fallback and leaves the
// protocol RNG where the reference leaves its twin.
func TestFallbackMatchesTwoPassReference(t *testing.T) {
	multi := 0
	for seed := int64(1); seed <= 6; seed++ {
		net, _ := randomNet(t, Dicas{}, seed, 150)
		net.rng = rand.New(rand.NewSource(seed * 7))
		refRng := rand.New(rand.NewSource(seed * 7))
		r := rand.New(rand.NewSource(seed * 53))
		for i := 0; i < 5; i++ {
			overlay.ChurnStep(net.Graph, overlay.DefaultChurn(), r)
		}
		for i := 0; i < 400; i++ {
			path := randomSimplePath(net.Graph, net.Config.TTL-1, r)
			q := testBranch(net, query("k"), path...)
			n := net.Node(path[len(path)-1])
			from := path[0] // the first hop's "sender" was the origin itself
			if len(path) > 1 {
				from = path[len(path)-2]
			}
			want, wantTally := refFallback(net, refRng, n, q, from)
			before := net.forwarding.Fallback
			got := net.fallbackNeighbors(eligOf(net, q))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d path %v: fallback %v, want %v", seed, path, got, want)
			}
			if tally := net.forwarding.Fallback - before; tally != wantTally {
				t.Fatalf("seed %d path %v: Fallback += %d, want %d", seed, path, tally, wantTally)
			}
			if a, b := net.rng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("seed %d path %v: the protocol RNG left the reference's sequence", seed, path)
			}
			if len(want) > 1 {
				multi++
			}
		}
	}
	if multi < 300 {
		t.Fatalf("only %d of 2400 fallbacks chose more than one target; the shuffle is barely exercised", multi)
	}
}

// noDownload is Flooding whose requester never accepts a provider: queries
// and responses flow in full, yet no peer gains a file, so a repeated batch
// meets the identical world.
type noDownload struct{ Flooding }

func (noDownload) SelectProvider(*Network, *Node, []cache.Provider) (cache.Provider, bool) {
	return cache.Provider{}, false
}

// TestMessagePoolsReachSteadyState: a message is its own event, so each is
// taken from its pool once per send and Put back once, when it fires (a
// response, when its walk ends). Once the engine has drained, every message
// and response a delivery ever carried is therefore on its free list, once
// — a missed Put would leave the list shorter than that, a double Put
// longer — and a second identical batch of overlapping queries leaves both
// lists exactly as long as the first left them.
func TestMessagePoolsReachSteadyState(t *testing.T) {
	net, files := randomNet(t, noDownload{}, 11, 150)
	msgs, resps := map[*QueryMsg]bool{}, map[*ResponseMsg]bool{}
	net.Engine.SetObserver(func(_ sim.Time, ev sim.Event) {
		switch m := ev.(type) {
		case *QueryMsg:
			msgs[m] = true
		case *ResponseMsg:
			resps[m] = true
		}
	})
	batch := func(label string) (int, int) {
		r := rand.New(rand.NewSource(5))
		start := net.Engine.Now()
		for i := 0; i < 40; i++ {
			q := keywords.ExtractQuery(files[r.Intn(len(files))], r)
			origin := overlay.PeerID(r.Intn(net.Graph.N()))
			if err := net.Engine.PostEventAt(start+sim.Time(i)*50*sim.Millisecond, fn(func(*sim.Engine) {
				net.SubmitQuery(origin, q)
			})); err != nil {
				t.Fatal(err)
			}
		}
		runAll(net)
		if c := net.Counts(); c.Finalized != c.Submitted {
			t.Fatalf("%s batch: %d queries still pending after the engine drained", label, c.Submitted-c.Finalized)
		}
		if net.msgPool.Len() != len(msgs) || net.respPool.Len() != len(resps) {
			t.Fatalf("%s batch: free lists hold %d messages and %d responses; deliveries carried %d and %d distinct ones",
				label, net.msgPool.Len(), net.respPool.Len(), len(msgs), len(resps))
		}
		return net.msgPool.Len(), net.respPool.Len()
	}
	msgs1, resps1 := batch("first")
	if msgs1 < 64 || resps1 < 2 {
		t.Fatalf("fixture: free lists of %d messages and %d responses; the batch barely used the pools", msgs1, resps1)
	}
	if msgs2, resps2 := batch("second"); msgs2 != msgs1 || resps2 != resps1 {
		t.Fatalf("free lists after the second batch: %d messages, %d responses; the first left %d, %d",
			msgs2, resps2, msgs1, resps1)
	}
}

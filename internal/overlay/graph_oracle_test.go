package overlay

import (
	"math/rand"
	"slices"
	"testing"
)

// setGraph is the oracle: the overlay as one set of neighbours per peer,
// every query answered the obvious way.
type setGraph struct {
	sets   []map[PeerID]bool
	online []bool
}

func newSetGraph(n int) *setGraph {
	o := &setGraph{sets: make([]map[PeerID]bool, n), online: make([]bool, n)}
	for i := range o.sets {
		o.sets[i] = map[PeerID]bool{}
		o.online[i] = true
	}
	return o
}

func (o *setGraph) addLink(a, b PeerID) {
	if a != b && o.online[a] && o.online[b] {
		o.sets[a][b], o.sets[b][a] = true, true
	}
}

func (o *setGraph) removeLink(a, b PeerID) {
	delete(o.sets[a], b)
	delete(o.sets[b], a)
}

func (o *setGraph) neighbors(p PeerID) []PeerID {
	out := []PeerID{}
	for q := range o.sets[p] {
		out = append(out, q)
	}
	slices.Sort(out)
	return out
}

func (o *setGraph) leave(p PeerID) []PeerID {
	if !o.online[p] {
		return nil
	}
	former := o.neighbors(p)
	for _, q := range former {
		o.removeLink(p, q)
	}
	o.online[p] = false
	return former
}

// rewireJoin is RewireJoin's rule over the sets, drawing from r exactly as
// the graph's does: a uniform pick among the online peers not yet tried, in
// ascending order, until p has want links or nobody is left.
func (o *setGraph) rewireJoin(p PeerID, want, maxDegree int, r *rand.Rand) {
	tried := map[PeerID]bool{p: true}
	for len(o.sets[p]) < want {
		var candidates []PeerID
		for i, on := range o.online {
			if on && !tried[PeerID(i)] {
				candidates = append(candidates, PeerID(i))
			}
		}
		if len(candidates) == 0 {
			return
		}
		q := candidates[r.Intn(len(candidates))]
		tried[q] = true
		if len(o.sets[q]) < maxDegree {
			o.addLink(p, q)
		}
	}
}

func (o *setGraph) components() []int {
	seen := map[PeerID]bool{}
	var sizes []int
	for start := range o.sets {
		if seen[PeerID(start)] || !o.online[start] {
			continue
		}
		seen[PeerID(start)] = true
		queue := []PeerID{PeerID(start)}
		for i := 0; i < len(queue); i++ {
			for q := range o.sets[queue[i]] {
				if !seen[q] {
					seen[q] = true
					queue = append(queue, q)
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	slices.Sort(sizes)
	slices.Reverse(sizes)
	return sizes
}

// TestGraphMatchesSetOracle drives Graph and the oracle through the same
// random AddLink / RemoveLink / Leave / Join / RewireJoin sequence and
// requires every read — Linked, Degree, Neighbors (ascending), Edges,
// Online, component sizes — to agree after every step. Graph keeps
// adjacency once, as sorted slices; the oracle is what the deleted
// per-peer maps were.
func TestGraphMatchesSetOracle(t *testing.T) {
	const n, maxDegree = 14, 5
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, o := NewGraph(n), newSetGraph(n)
		ops := [5]int{}
		for step := 0; step < 2500; step++ {
			a, b := PeerID(r.Intn(n)), PeerID(r.Intn(n))
			op := r.Intn(10)
			switch {
			case op < 4:
				ops[0]++
				_ = g.AddLink(a, b) // self and offline links are refused on both sides
				o.addLink(a, b)
			case op < 6:
				ops[1]++
				g.RemoveLink(a, b)
				o.removeLink(a, b)
			case op == 6:
				ops[2]++
				if got, want := g.Leave(a), o.leave(a); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Leave(%d) = %v, oracle %v", seed, step, a, got, want)
				}
			case op == 7:
				ops[3]++
				_ = g.Join(a)
				o.online[a] = true
			default:
				if g.Online(a) {
					ops[4]++
					rs := r.Int63()
					RewireJoin(g, a, 3, maxDegree, rand.New(rand.NewSource(rs)))
					o.rewireJoin(a, 3, maxDegree, rand.New(rand.NewSource(rs)))
				}
			}

			edges := 0
			for p := PeerID(0); p < n; p++ {
				want := o.neighbors(p)
				edges += len(want)
				if got := g.Neighbors(p); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Neighbors(%d) = %v, oracle %v", seed, step, p, got, want)
				}
				if g.Degree(p) != len(want) || g.Online(p) != o.online[p] {
					t.Fatalf("seed %d step %d: peer %d degree %d online %v, oracle %d %v",
						seed, step, p, g.Degree(p), g.Online(p), len(want), o.online[p])
				}
				for q := PeerID(0); q < n; q++ {
					if g.Linked(p, q) != o.sets[p][q] {
						t.Fatalf("seed %d step %d: Linked(%d,%d) = %v, oracle %v", seed, step, p, q, g.Linked(p, q), o.sets[p][q])
					}
				}
			}
			if g.Edges() != edges/2 {
				t.Fatalf("seed %d step %d: Edges = %d, oracle %d", seed, step, g.Edges(), edges/2)
			}
			if got, want := components(g), o.components(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: components %v, oracle %v", seed, step, got, want)
			}
		}
		for i, c := range ops {
			if c < 100 {
				t.Fatalf("seed %d: operation %d ran %d times; the sequence does not exercise it", seed, i, c)
			}
		}
	}
}

// randomOnlinePeerByList is the candidate-list algorithm RandomOnlinePeer
// replaced: collect every eligible peer, then draw one index among them.
func randomOnlinePeerByList(g *Graph, r *rand.Rand, excluded map[PeerID]bool) PeerID {
	var candidates []PeerID
	for i := 0; i < g.N(); i++ {
		if p := PeerID(i); g.Online(p) && !excluded[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[r.Intn(len(candidates))]
}

// TestRandomOnlinePeerMatchesListOracle holds the counting walk to the
// candidate list over random graphs with offline peers and excluded sets,
// every peer excluded included: the same peer and the same draws from r,
// and no allocation.
func TestRandomOnlinePeerMatchesListOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		setup := rand.New(rand.NewSource(seed))
		n := 1 + setup.Intn(60)
		g := BuildRandom(n, BuildConfig{AvgDegree: 3, MaxDegree: 8}, setup)
		for i := 0; i < n; i++ {
			if setup.Float64() < 0.3 {
				g.Leave(PeerID(i))
			}
		}
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for draw := 0; draw < 50; draw++ {
			excluded := map[PeerID]bool{}
			switch draw % 5 {
			case 0: // none
			case 1: // every peer
				for i := 0; i < n; i++ {
					excluded[PeerID(i)] = true
				}
			default:
				for i := 0; i < n; i++ {
					if setup.Float64() < 0.2*float64(draw%5) {
						excluded[PeerID(i)] = true
					}
				}
			}
			got, want := g.RandomOnlinePeer(a, excluded), randomOnlinePeerByList(g, b, excluded)
			if got != want || a.Int63() != b.Int63() {
				t.Fatalf("seed %d draw %d: RandomOnlinePeer = %d, the list oracle %d (or their draws parted)", seed, draw, got, want)
			}
		}
	}
	g := BuildRandom(200, BuildConfig{AvgDegree: 3, MaxDegree: 8}, rand.New(rand.NewSource(1)))
	r, excluded := rand.New(rand.NewSource(2)), map[PeerID]bool{3: true}
	if allocs := testing.AllocsPerRun(100, func() { g.RandomOnlinePeer(r, excluded) }); allocs != 0 {
		t.Fatalf("RandomOnlinePeer allocates %.0f times per call", allocs)
	}
}

// TestCloneIsIndependent holds Graph.Clone: the copy answers as the
// original did, and churn on either side is invisible to the other.
func TestCloneIsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := BuildRandom(50, BuildConfig{AvgDegree: 3, MaxDegree: 8}, r)
	snapshot := func(g *Graph) (adj [][]PeerID, online []bool, edges int) {
		for i := 0; i < g.N(); i++ {
			adj = append(adj, slices.Clone(g.Neighbors(PeerID(i))))
			online = append(online, g.Online(PeerID(i)))
		}
		return adj, online, g.Edges()
	}
	adj0, on0, e0 := snapshot(g)
	c := g.Clone()
	churn := ChurnConfig{LeaveProb: 0.3, JoinProb: 0.5, AvgDegree: 4, MaxDegree: 8, MinOnlineFraction: 0.2}
	for range 20 {
		ChurnStep(c, churn, r)
	}
	if adj, on, e := snapshot(g); !slices.EqualFunc(adj, adj0, slices.Equal) || !slices.Equal(on, on0) || e != e0 {
		t.Fatal("churn on the copy reached the original")
	}
	c = g.Clone()
	if adj, on, e := snapshot(c); !slices.EqualFunc(adj, adj0, slices.Equal) || !slices.Equal(on, on0) || e != e0 {
		t.Fatal("a fresh copy differs from its original")
	}
	for range 20 {
		ChurnStep(g, churn, r)
	}
	if adj, on, e := snapshot(c); !slices.EqualFunc(adj, adj0, slices.Equal) || !slices.Equal(on, on0) || e != e0 {
		t.Fatal("churn on the original reached the copy")
	}
}

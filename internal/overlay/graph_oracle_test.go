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
// Online, ConnectedComponents — to agree after every step. Graph keeps
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
			if got, want := g.ConnectedComponents(), o.components(); !slices.Equal(got, want) {
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

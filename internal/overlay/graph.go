// Package overlay implements the unstructured (Gnutella-like) P2P overlay of
// §3.1: peers join by establishing logical links to randomly chosen
// neighbours, without knowledge of the underlying topology. The package
// provides the random-graph builder used in the paper's evaluation (1000
// peers, average connectivity degree 3), neighbour tables, and churn
// (leave/rejoin) dynamics with connectivity repair.
package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// PeerID identifies a peer; it doubles as the peer's index into the physical
// network model, so overlay identity and physical identity stay aligned.
type PeerID int

// Graph is an undirected overlay graph over peers 0..n-1. Peers may be
// marked offline (churn); offline peers keep their identity but have no
// links.
//
// Adjacency is one ascending slice per peer: the hot Neighbors call returns
// it without allocating or sorting, and Linked, AddLink and RemoveLink
// binary-search it (degrees are a handful, capped at MaxDegree).
type Graph struct {
	n      int
	nbrs   [][]PeerID
	online []bool
	edges  int
}

// Errors returned by graph mutations.
var (
	ErrBadPeer  = errors.New("overlay: peer id out of range")
	ErrOffline  = errors.New("overlay: peer is offline")
	ErrSelfLink = errors.New("overlay: self link")
)

// NewGraph returns an edgeless graph of n online peers.
func NewGraph(n int) *Graph {
	g := &Graph{
		n:      n,
		nbrs:   make([][]PeerID, n),
		online: make([]bool, n),
	}
	for i := range g.online {
		g.online[i] = true
	}
	return g
}

// N returns the total number of peer slots (online and offline).
func (g *Graph) N() int { return g.n }

// Edges returns the number of undirected links.
func (g *Graph) Edges() int { return g.edges }

// Online reports whether p participates in the overlay.
func (g *Graph) Online(p PeerID) bool {
	return g.valid(p) && g.online[p]
}

// OnlineCount returns the number of online peers.
func (g *Graph) OnlineCount() int {
	c := 0
	for _, on := range g.online {
		if on {
			c++
		}
	}
	return c
}

func (g *Graph) valid(p PeerID) bool { return p >= 0 && int(p) < g.n }

// AddLink inserts an undirected link a—b. Adding an existing link is a
// no-op.
func (g *Graph) AddLink(a, b PeerID) error {
	if !g.valid(a) || !g.valid(b) {
		return ErrBadPeer
	}
	if a == b {
		return ErrSelfLink
	}
	if !g.online[a] || !g.online[b] {
		return ErrOffline
	}
	i, ok := slices.BinarySearch(g.nbrs[a], b)
	if ok {
		return nil
	}
	j, _ := slices.BinarySearch(g.nbrs[b], a)
	g.nbrs[a] = slices.Insert(g.nbrs[a], i, b)
	g.nbrs[b] = slices.Insert(g.nbrs[b], j, a)
	g.edges++
	return nil
}

// RemoveLink deletes the undirected link a—b if present.
func (g *Graph) RemoveLink(a, b PeerID) {
	i, ok := slices.BinarySearch(g.Neighbors(a), b)
	if !ok {
		return
	}
	j, _ := slices.BinarySearch(g.nbrs[b], a)
	g.nbrs[a] = slices.Delete(g.nbrs[a], i, i+1)
	g.nbrs[b] = slices.Delete(g.nbrs[b], j, j+1)
	g.edges--
}

// Linked reports whether a and b are neighbours.
func (g *Graph) Linked(a, b PeerID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(a), b)
	return ok
}

// Degree returns the number of neighbours of p (0 if offline or invalid).
func (g *Graph) Degree(p PeerID) int { return len(g.Neighbors(p)) }

// Neighbors returns p's neighbour list in ascending order — deterministic
// iteration, which the simulator relies on for reproducible runs. The
// returned slice is the graph's internal table: callers must not mutate or
// retain it across graph mutations.
func (g *Graph) Neighbors(p PeerID) []PeerID {
	if !g.valid(p) {
		return nil
	}
	return g.nbrs[p]
}

// AvgDegree returns the mean degree over online peers.
func (g *Graph) AvgDegree() float64 {
	online := g.OnlineCount()
	if online == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(online)
}

// Leave takes p offline, removing all its links. It returns the former
// neighbour set so churn logic can repair connectivity.
func (g *Graph) Leave(p PeerID) []PeerID {
	if !g.valid(p) || !g.online[p] {
		return nil
	}
	// Copy before unlinking: RemoveLink mutates the internal list that
	// Neighbors aliases.
	former := append([]PeerID(nil), g.nbrs[p]...)
	for _, q := range former {
		g.RemoveLink(p, q)
	}
	g.online[p] = false
	return former
}

// Join brings p back online with no links; the caller wires it to new
// neighbours.
func (g *Graph) Join(p PeerID) error {
	if !g.valid(p) {
		return ErrBadPeer
	}
	g.online[p] = true
	return nil
}

// ConnectedComponents returns the sizes of connected components among online
// peers, largest first.
func (g *Graph) ConnectedComponents() []int {
	seen := make([]bool, g.n)
	var sizes []int
	for start := 0; start < g.n; start++ {
		if seen[start] || !g.online[start] {
			continue
		}
		size := 0
		stack := []PeerID{PeerID(start)}
		seen[start] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, q := range g.nbrs[p] {
				if !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		sizes = append(sizes, size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// IsConnected reports whether all online peers form one component.
func (g *Graph) IsConnected() bool {
	cc := g.ConnectedComponents()
	return len(cc) <= 1
}

// RandomOnlinePeer returns a uniformly random online peer, excluding those
// in the excluded set. It returns -1 if none is available.
func (g *Graph) RandomOnlinePeer(r *rand.Rand, excluded map[PeerID]bool) PeerID {
	candidates := make([]PeerID, 0, g.n)
	for i := 0; i < g.n; i++ {
		p := PeerID(i)
		if g.online[i] && !excluded[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[r.Intn(len(candidates))]
}

// String summarises the graph for traces.
func (g *Graph) String() string {
	return fmt.Sprintf("overlay{n=%d online=%d edges=%d avgDeg=%.2f}",
		g.n, g.OnlineCount(), g.edges, g.AvgDegree())
}

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

	"github.com/p2prepro/locaware/internal/sim"
)

// PeerID identifies a peer; it doubles as the peer's index into the physical
// network model, so overlay identity and physical identity stay aligned. It
// is 4 bytes at every word size: core's Param.Check caps peers at MaxInt32.
type PeerID int32

// Graph is an undirected overlay graph over peers 0..n-1. Peers may be
// marked offline (churn); offline peers keep their identity but have no
// links.
//
// Adjacency is one ascending row per peer: the hot Neighbors call returns
// it without allocating or sorting, and Linked, AddLink and RemoveLink
// binary-search it (degrees are a handful, capped at MaxDegree). A row sits
// in a window of 2w 32-bit slots, its ids in the first w and each link's
// delay slot (see LinkDelay) in the second, at the same index: at a window
// of four, one cache line holds both. nbrs[p] is the row's ids with the
// whole window as capacity, so w is cap(nbrs[p])/2.
type Graph struct {
	n      int
	nbrs   [][]PeerID
	online []bool
	edges  int
	// former, left and joined are what Leave and ChurnStep return, reused
	// call to call so a departure allocates nothing once they have grown.
	former, left, joined []PeerID
	// block is what a row that outgrows its window moves into.
	block []PeerID
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
	g.insert(a, i, b)
	g.insert(b, j, a)
	g.edges++
	return nil
}

// insert puts q, its delay unknown, at index i of p's row. A full window
// moves, ids and delays together, into one of twice the room carved from
// the graph's block. A new block holds ⌈n/16⌉ such windows, at most 64:
// a small graph grows few rows.
func (g *Graph) insert(p PeerID, i int, q PeerID) {
	r := g.nbrs[p]
	if w := cap(r) / 2; len(r) == w {
		size := 2 * max(2*w, 4)
		if len(g.block) < size {
			g.block = make([]PeerID, size*min((g.n+15)/16, 64))
		}
		grown := sim.Carve(&g.block, size)[:len(r)]
		copy(grown, r)
		copy(delays(grown), delays(r)[:len(r)])
		r = grown
	}
	r = r[:len(r)+1]
	d := delays(r)
	copy(r[i+1:], r[i:])
	copy(d[i+1:len(r)], d[i:])
	r[i], d[i] = q, 0
	g.nbrs[p] = r
}

// delays is the delay half of row r's window.
func delays(r []PeerID) []PeerID { return r[cap(r)/2 : cap(r)] }

// RemoveLink deletes the undirected link a—b if present.
func (g *Graph) RemoveLink(a, b PeerID) {
	i, ok := slices.BinarySearch(g.Neighbors(a), b)
	if !ok {
		return
	}
	j, _ := slices.BinarySearch(g.nbrs[b], a)
	g.remove(a, i)
	g.remove(b, j)
	g.edges--
}

// remove deletes index i of p's row, its delay slot with it.
func (g *Graph) remove(p PeerID, i int) {
	r := g.nbrs[p]
	d := delays(r)
	copy(r[i:], r[i+1:])
	copy(d[i:len(r)-1], d[i+1:len(r)])
	g.nbrs[p] = r[:len(r)-1]
}

// Linked reports whether a and b are neighbours.
func (g *Graph) Linked(a, b PeerID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(a), b)
	return ok
}

// LinkDelay returns the delay slot of link a→b in a's row, and the link's
// index in Neighbors(a); i is -1 when a and b are not linked. A slot holds
// what SetLinkDelay last stored for the link, from either end, and 0 until
// then: a new link and every slot of a Clone start at 0. The row is
// scanned, not searched: it is a handful of ids the caller has usually
// just read.
func (g *Graph) LinkDelay(a, b PeerID) (d uint32, i int) {
	if !g.valid(a) {
		return 0, -1
	}
	r := g.nbrs[a]
	for i, q := range r {
		if q == b {
			return uint32(delays(r)[i]), i
		}
	}
	return 0, -1
}

// SetLinkDelay stores d as the delay of the link at index i of a's row,
// the index LinkDelay returned, in the slots at both its ends: a link is
// undirected, and so is its delay.
func (g *Graph) SetLinkDelay(a PeerID, i int, d uint32) {
	b := g.nbrs[a][i]
	j, _ := slices.BinarySearch(g.nbrs[b], a)
	delays(g.nbrs[a])[i], delays(g.nbrs[b])[j] = PeerID(d), PeerID(d)
}

// Degree returns the number of neighbours of p (0 if offline or invalid).
func (g *Graph) Degree(p PeerID) int { return len(g.Neighbors(p)) }

// Neighbors returns p's neighbour list in ascending order — deterministic
// iteration, which the simulator relies on for reproducible runs. The
// returned slice is the graph's internal table, its capacity clipped to its
// length: callers must not mutate or retain it across graph mutations.
func (g *Graph) Neighbors(p PeerID) []PeerID {
	if !g.valid(p) {
		return nil
	}
	r := g.nbrs[p]
	return r[:len(r):len(r)]
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
// neighbour set so churn logic can repair connectivity; the slice is the
// graph's own and valid until the next Leave.
func (g *Graph) Leave(p PeerID) []PeerID {
	if !g.valid(p) || !g.online[p] {
		return nil
	}
	// Copy before unlinking: RemoveLink mutates the internal list that
	// Neighbors aliases.
	g.former = append(g.former[:0], g.nbrs[p]...)
	for _, q := range g.former {
		g.RemoveLink(p, q)
	}
	g.online[p] = false
	return g.former
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

// RandomOnlinePeer returns a uniformly random online peer, excluding those
// in the excluded set. It returns -1 if none is available.
// It counts the eligible peers and walks to the drawn one: no allocation.
func (g *Graph) RandomOnlinePeer(r *rand.Rand, excluded map[PeerID]bool) PeerID {
	count := 0
	for p := range PeerID(g.n) {
		if g.online[p] && !excluded[p] {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	for p, k := PeerID(0), r.Intn(count); ; p++ {
		if g.online[p] && !excluded[p] {
			if k == 0 {
				return p
			}
			k--
		}
	}
}

// Clone returns an independent copy of g. Every row keeps its window in
// one block, so the copy grows as g would; its delay slots start at 0.
func (g *Graph) Clone() *Graph {
	slots := 0
	for _, nb := range g.nbrs {
		slots += cap(nb)
	}
	block := make([]PeerID, slots)
	c := &Graph{n: g.n, nbrs: make([][]PeerID, g.n), online: slices.Clone(g.online), edges: g.edges}
	for i, nb := range g.nbrs {
		c.nbrs[i] = append(block[:0:cap(nb)], nb...)
		block = block[cap(nb):]
	}
	return c
}

// String summarises the graph for traces.
func (g *Graph) String() string {
	return fmt.Sprintf("overlay{n=%d online=%d edges=%d avgDeg=%.2f}",
		g.n, g.OnlineCount(), g.edges, g.AvgDegree())
}

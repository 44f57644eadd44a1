package netmodel

import (
	"fmt"
	"math/bits"
)

// LocID identifies a physical locality: each distinct landmark-RTT ordering
// maps to one LocID in [0, K!). With the paper's 4 landmarks there are 24
// locIds; the paper argues 5 landmarks (120 locIds) scatters 1000 peers too
// thinly (≈8 peers per locId) to find same-locality providers.
type LocID int

// NumLocIDs returns k! — the number of possible locIds for k landmarks.
func NumLocIDs(k int) int {
	n := 1
	for i := 2; i <= k; i++ {
		n *= i
	}
	return n
}

// EncodeOrdering converts a landmark ordering (a permutation of 0..k-1) into
// its Lehmer-code rank, a canonical LocID, allocating nothing. It panics if
// perm is not a permutation: that is a programming error upstream.
func EncodeOrdering(perm []int) LocID {
	k := len(perm)
	var seen uint64 // bit v: v placed already
	rank := 0
	fact := NumLocIDs(k)
	for i, v := range perm {
		if v < 0 || v >= k || v >= 64 || seen&(1<<v) != 0 {
			panic(fmt.Sprintf("netmodel: invalid permutation %v", perm))
		}
		fact /= k - i
		rank += (v - bits.OnesCount64(seen&(1<<v-1))) * fact // unplaced indices below v
		seen |= 1 << v
	}
	return LocID(rank)
}

// Locator holds each peer's locId, computed once against the landmark set
// as a peer computes it on arrival (§4.1.1).
type Locator struct {
	ids []LocID
}

// NewLocator computes locIds for every peer in m against landmark set lm.
func NewLocator(m *Model, lm *Landmarks) *Locator {
	ids := make([]LocID, m.N())
	rtt, perm := make([]float64, len(lm.pts)), make([]int, len(lm.pts))
	for i := range ids {
		lm.order(m, i, rtt, perm)
		ids[i] = EncodeOrdering(perm)
	}
	return &Locator{ids: ids}
}

// LocID returns peer a's locality identifier.
func (l *Locator) LocID(a int) LocID { return l.ids[a] }

// Census returns, for each locId value in [0, K!), how many peers map to it.
func (l *Locator) Census() map[LocID]int {
	c := make(map[LocID]int)
	for _, id := range l.ids {
		c[id]++
	}
	return c
}

// MeanPeersPerOccupiedLocID returns the average population of non-empty
// localities — the statistic the paper uses to argue for 4 landmarks.
func (l *Locator) MeanPeersPerOccupiedLocID() float64 {
	c := l.Census()
	if len(c) == 0 {
		return 0
	}
	return float64(len(l.ids)) / float64(len(c))
}

package netmodel

import "fmt"

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
// its Lehmer-code rank, a canonical LocID. It panics if perm is not a
// permutation, since that indicates a programming error upstream.
func EncodeOrdering(perm []int) LocID {
	k := len(perm)
	seen := make([]bool, k)
	rank := 0
	fact := NumLocIDs(k)
	for i, v := range perm {
		if v < 0 || v >= k || seen[v] {
			panic(fmt.Sprintf("netmodel: invalid permutation %v", perm))
		}
		seen[v] = true
		fact /= k - i
		smaller := 0
		for u := 0; u < v; u++ {
			if !seen[u] {
				smaller++
			}
		}
		rank += smaller * fact
	}
	return LocID(rank)
}

// DecodeLocID inverts EncodeOrdering, returning the landmark ordering for a
// LocID with k landmarks. It panics on an out-of-range id.
func DecodeLocID(id LocID, k int) []int {
	if id < 0 || int(id) >= NumLocIDs(k) {
		panic(fmt.Sprintf("netmodel: locId %d out of range for %d landmarks", id, k))
	}
	avail := make([]int, k)
	for i := range avail {
		avail[i] = i
	}
	perm := make([]int, 0, k)
	rem := int(id)
	fact := NumLocIDs(k)
	for i := 0; i < k; i++ {
		fact /= k - i
		idx := rem / fact
		rem %= fact
		perm = append(perm, avail[idx])
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return perm
}

// Locator holds each peer's locId, computed once against the landmark set
// as a peer computes it on arrival (§4.1.1).
type Locator struct {
	ids []LocID
}

// NewLocator computes locIds for every peer in m against landmark set lm.
func NewLocator(m *Model, lm *Landmarks) *Locator {
	ids := make([]LocID, m.N())
	for i := range ids {
		ids[i] = EncodeOrdering(lm.Ordering(m, i))
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

// Package bloom implements the Bloom filters Locaware uses to summarise the
// keywords of filenames cached in a peer's response index (§4.2). It
// provides a plain bit-vector filter (what peers gossip to neighbours), a
// counting filter (what a peer maintains locally so keyword deletions are
// possible when indexes are evicted), and the compact changed-bit delta
// encoding of footnote 1 (≤12 changed bits × 11 bits of position = 0.132 Kb
// per update for a 1200-bit filter).
package bloom

// maxK caps the number of hash functions (the optimum k = (m/n) ln 2
// reaches 16 only past 23 bits per element). The
// fixed bound lets every filter operation compute its bit positions in a
// stack array instead of a heap slice — membership tests run on the
// per-hop routing path, where a slice allocation per Test was the single
// biggest allocator left after the typed-event refactor.
const maxK = 16

// hashPair returns two independent 64-bit hashes of s, used for
// Kirsch–Mitzenmacher double hashing: g_i(x) = h1(x) + i*h2(x). The FNV-1a
// loop is inlined (bit-identical to hash/fnv's 64-bit variant) so hashing
// never allocates a hasher; FNV-1a has weak avalanche in its high bits, so
// both outputs go through a splitmix64-style finaliser to decorrelate them.
func hashPair(s string) (uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	base := uint64(offset64)
	for i := 0; i < len(s); i++ {
		base ^= uint64(s[i])
		base *= prime64
	}
	h1 := mix64(base)
	h2 := mix64(base ^ 0x9e3779b97f4a7c15)
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// mix64 is the splitmix64 finaliser (Stafford variant 13), a bijective
// avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// indexes fills idx with the k bit positions of s in an m-bit filter.
func indexes(s string, m uint32, idx []uint32) {
	h1, h2 := hashPair(s)
	for i := range idx {
		idx[i] = uint32((h1 + uint64(i)*h2) % uint64(m))
	}
}

package netmodel

import (
	"math/rand"
	"sort"
	"sync"
)

// A pair's jitter is the first NormFloat64 of a math/rand generator seeded
// from the pair's identity. Seeding that generator fills 607 words (≈5 µs,
// 4.9 KB) of which the first draw reads two, so this file evaluates the
// draw in closed form from tables built once at init, and Model.RTT is a
// pure function of the pair with no memo and no lock.
//
// It relies on math/rand's seeded stream, which Go's compatibility promise
// freezes. rand.NewSource seeds an additive lagged-Fibonacci register
// vec[0..606] from the Lehmer sequence x ← 48271·x mod (2³¹−1): it
// discards 20 values, then spends three per word, XORed with a fixed table
// (cooked), so vec[i]'s first Lehmer value is seed·48271^(21+3i). Draw k
// returns vec[334−k] + vec[607−k] and overwrites vec[334−k]; up to draw 273
// no word it reads has been overwritten yet. The ziggurat behind
// NormFloat64 accepts its first draw j (a signed 32-bit value) when
// |j| < kn[j&127], returning j·wn[j&127]; the 2.8 % of pairs it rejects
// draw on from a pooled generator over pairSource.
//
// No table is copied from the standard library: cooked is recovered from
// one seeded generator's output, and each ziggurat strip's threshold and
// width are read back from NormFloat64 itself. TestFirstInt63,
// TestPairSourceStream and TestZigguratStripEdges compare the closed form
// with the real generator and are the guard.

const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	regLen  = 607 // register words
	regTap  = 273 // draws served before one reads an overwritten word
)

var (
	jump   [regLen]uint64 // jump[i] = 48271^(21+3i) mod (2³¹−1)
	cooked [regLen]int64  // math/rand's fixed XOR table

	// A first ziggurat draw j is accepted iff |j| < zigLimit[j&127], and
	// then NormFloat64 returns float64(j) * zigWidth[j&127].
	zigLimit [128]uint32
	zigWidth [128]float64
)

// mulMod returns x·y mod (2³¹−1) for x, y < 2³¹ by Mersenne reduction.
func mulMod(x, y uint64) uint64 {
	p := x * y
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// lehmerSeed normalises a seed as rngSource.Seed does.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// rawWord assembles register word i of the generator whose normalised
// seed is x, before the cooked XOR: three consecutive Lehmer values.
func rawWord(x uint64, i int) int64 {
	x = mulMod(x, jump[i])
	u := int64(x) << 40
	x = mulMod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulMod(x, lehmerA)
	return u ^ int64(x)
}

// draw returns Int63 draw k (1 ≤ k ≤ regTap) of the generator whose
// normalised seed is x.
func draw(x uint64, k int) int64 {
	a, b := regLen-regTap-k, regLen-k
	return ((rawWord(x, a) ^ cooked[a]) + (rawWord(x, b) ^ cooked[b])) & (1<<63 - 1)
}

// pairNorm returns rand.New(rand.NewSource(seed)).NormFloat64(). It writes
// no shared state, so concurrent callers need no lock.
func pairNorm(seed int64) float64 {
	if v, ok := zigFirst(int32(draw(lehmerSeed(seed), 1) >> 31)); ok {
		return v
	}
	r := pairRands.Get().(*pairRand)
	r.src.Seed(seed)
	v := r.NormFloat64()
	pairRands.Put(r)
	return v
}

// zigFirst returns what NormFloat64 returns when its first 32-bit draw is j,
// or false when the ziggurat rejects j and draws again.
func zigFirst(j int32) (float64, bool) {
	i := j & 127
	abs := uint32(j)
	if j < 0 {
		abs = -abs
	}
	return float64(j) * zigWidth[i], abs < zigLimit[i]
}

// pairRand is a generator over its own pairSource, pooled for the rejected
// first draws.
type pairRand struct {
	src pairSource
	*rand.Rand
}

var pairRands = sync.Pool{New: func() any {
	r := new(pairRand)
	r.Rand = rand.New(&r.src)
	return r
}}

// pairSource is a rand.Source reproducing rand.NewSource(seed)'s stream:
// draws 1–273 in closed form, and only past those (which no NormFloat64 in
// practice reaches) a real generator, seeded and advanced.
type pairSource struct {
	x     uint64 // the normalised seed, which seeds the same stream
	drawn int
	full  rand.Source
}

func (s *pairSource) Seed(seed int64) { s.x, s.drawn = lehmerSeed(seed), 0 }

func (s *pairSource) Int63() int64 {
	s.drawn++
	if s.drawn <= regTap {
		return draw(s.x, s.drawn)
	}
	if s.drawn == regTap+1 {
		if s.full == nil {
			s.full = rand.NewSource(int64(s.x))
		} else {
			s.full.Seed(int64(s.x))
		}
		for k := 0; k < regTap; k++ {
			s.full.Int63()
		}
	}
	return s.full.Int63()
}

func init() {
	pow, a3 := uint64(1), mulMod(mulMod(lehmerA, lehmerA), lehmerA)
	for k := 0; k < 21; k++ {
		pow = mulMod(pow, lehmerA)
	}
	for i := range jump {
		jump[i] = pow
		pow = mulMod(pow, a3)
	}

	// Recover one seeded register from its first 607 outputs. Draw k > 273
	// adds the word draw k−273 wrote (its output) to a word not yet
	// written; draw k ≤ 273 adds two seeded words, one of them recovered
	// by then. XORing out the raw Lehmer words leaves cooked.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [regLen + 1]uint64
	for k := 1; k <= regLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		vec[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		vec[regLen-regTap-k] = out[k] - vec[regLen-k]
	}
	for i := range cooked {
		cooked[i] = int64(vec[i]) ^ rawWord(lehmerSeed(seed), i)
	}

	// Acceptance is monotone in |j| within a strip, so the least rejected
	// magnitude among the positive draws of strip i (i + 128m), and among
	// its negative ones (i − 128(m+1)), bracket kn[i] from above by less
	// than 128; the smaller of the two separates every accepted magnitude
	// of the strip from every rejected one. A range with no rejection ends
	// at the first member past it.
	probe := new(probeSource)
	r := rand.New(probe)
	first := func(j int64) (float64, bool) {
		*probe = probeSource{first: int64(uint32(j)) << 31}
		x := r.NormFloat64()
		return x, probe.drawn == 1
	}
	for i := int64(0); i < 128; i++ {
		pos := i + int64(sort.Search(1<<24, func(m int) bool {
			_, ok := first(i + int64(m)<<7)
			return !ok
		}))<<7
		neg := 128 - i + int64(sort.Search(1<<24, func(m int) bool {
			_, ok := first(i - int64(m+1)<<7)
			return !ok
		}))<<7
		// The width is read off an exactly representable product. A strip
		// whose smallest draw is rejected (strip 1 rejects every draw)
		// keeps limit 0, so the fast path never accepts in it.
		wj := i
		if i == 0 {
			wj = 128
		}
		if x, ok := first(wj); ok {
			zigLimit[i], zigWidth[i] = uint32(min(pos, neg)), x/float64(wj)
		}
	}
}

// probeSource serves one chosen first draw, then zeros (on which every
// rejection path of NormFloat64 returns), and counts the draws.
type probeSource struct {
	first int64
	drawn int
}

func (p *probeSource) Seed(int64) {}

func (p *probeSource) Int63() int64 {
	p.drawn++
	if p.drawn == 1 {
		return p.first
	}
	return 0
}

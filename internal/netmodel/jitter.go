package netmodel

import "math/rand"

// A pair's jitter is the first NormFloat64 of a math/rand generator seeded
// from the pair's identity. Seeding that generator fills 607 words (≈5 µs,
// 4.9 KB) of which the first draw reads two, so this file computes those
// two words directly and hands them to the standard library's own ziggurat
// through a one-draw rand.Source.
//
// It relies on math/rand's seeded stream, which Go's compatibility promise
// freezes: rand.NewSource seeds an additive lagged-Fibonacci register
// vec[0..606] from the Lehmer sequence x ← 48271·x mod (2³¹−1), discarding
// 20 values and then spending three per word, XORed with a fixed table
// (rngCooked); the first output is vec[333] + vec[606]. TestFirstInt63
// compares a million seeds against the real generator and is the guard.

const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// lehmerPow333 and lehmerPow606 are 48271^(21+3i) mod (2³¹−1) for
	// i = 333 and 606: the jump from the normalised seed to the first of
	// the three Lehmer values that make up vec[i].
	lehmerPow333 = 2082024995
	lehmerPow606 = 933195560
	// cooked333 and cooked606 are math/rand's rngCooked[333] and [606].
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// seededWord assembles one register word from x, the first of its three
// consecutive Lehmer values, exactly as rngSource.Seed does.
func seededWord(x uint64, cooked int64) int64 {
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	return u ^ int64(x) ^ cooked
}

// firstInt63 returns rand.NewSource(seed).Int63().
func firstInt63(seed int64) int64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	sum := seededWord(x*lehmerPow333%lehmerM, cooked333) + seededWord(x*lehmerPow606%lehmerM, cooked606)
	return sum & (1<<63 - 1)
}

// pairSource is a rand.Source reproducing rand.NewSource(seed)'s stream at
// the cost of its first draw: that one comes from firstInt63, and only a
// caller that asks for a second (the ziggurat rejects 2.7 % of first draws)
// pays for seeding the real generator, which is kept and re-seeded rather
// than reallocated.
type pairSource struct {
	seed  int64
	drawn int
	full  rand.Source
}

func (s *pairSource) Seed(seed int64) { s.seed, s.drawn = seed, 0 }

func (s *pairSource) Int63() int64 {
	s.drawn++
	switch s.drawn {
	case 1:
		return firstInt63(s.seed)
	case 2:
		if s.full == nil {
			s.full = rand.NewSource(s.seed)
		} else {
			s.full.Seed(s.seed)
		}
		s.full.Int63() // the draw firstInt63 already served
	}
	return s.full.Int63()
}

package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestFirstInt63 is the guard jitter.go names: over a million seeds — small,
// negative, zero, multiples of 2³¹−1 (which normalise to the substitute
// seed), random 64-bit, the int64 extremes — the jump-ahead kernel must
// return the seeded generator's first Int63, and a rand.Rand over pairSource
// the same first NormFloat64 bit for bit, including on the seeds whose first
// draw the ziggurat rejects.
func TestFirstInt63(t *testing.T) {
	sequential, random := 200_000, 600_000
	if testing.Short() {
		sequential, random = 20_000, 60_000
	}
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 89482311, math.MaxInt64, math.MinInt64}
	for s := -sequential; s <= sequential; s++ {
		seeds = append(seeds, int64(s))
	}
	for k := int64(-1000); k <= 1000; k++ {
		seeds = append(seeds, k*lehmerM, k*lehmerM+1)
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < random; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}

	// Strided shares of the list, checked in parallel: seeding the
	// reference costs ≈10 µs a seed.
	const shares = 8
	for i := 0; i < shares; i++ {
		t.Run(fmt.Sprintf("share%d", i), func(t *testing.T) {
			t.Parallel()
			checkSeeds(t, seeds, i, shares)
		})
	}
}

func checkSeeds(t *testing.T, seeds []int64, start, stride int) {
	// Re-seeding a math/rand source resets all of its state, so one
	// generator is the reference for every seed; firstDraw records what the
	// ziggurat consumed first.
	ref := firstDraw{Source: rand.NewSource(0)}
	want := rand.New(&ref)
	var src pairSource
	got := rand.New(&src)
	checked, fallbacks := 0, 0
	for i := start; i < len(seeds); i += stride {
		seed := seeds[i]
		ref.Seed(seed)
		src.Seed(seed)
		a, b := got.NormFloat64(), want.NormFloat64()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d: NormFloat64 = %v over pairSource, %v over math/rand (after %d draws)", seed, a, b, src.drawn)
		}
		if a, b := firstInt63(seed), ref.first; a != b {
			t.Fatalf("seed %d: firstInt63 = %d, math/rand's first Int63 = %d", seed, a, b)
		}
		// And every 512th against a freshly allocated generator.
		if checked%512 == 0 {
			src.Seed(seed)
			if a, b := got.NormFloat64(), rand.New(rand.NewSource(seed)).NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: NormFloat64 = %v over pairSource, %v over a fresh generator", seed, a, b)
			}
		}
		checked++
		if src.drawn > 1 {
			fallbacks++
		}
	}
	if fallbacks < checked/100 {
		t.Fatalf("only %d of %d seeds took the fallback path, want at least %d", fallbacks, checked, checked/100)
	}
}

// firstDraw wraps a seeded source and keeps the first value drawn since the
// last Seed.
type firstDraw struct {
	rand.Source
	first int64
	drawn bool
}

func (f *firstDraw) Seed(seed int64) {
	f.Source.Seed(seed)
	f.drawn = false
}

func (f *firstDraw) Int63() int64 {
	v := f.Source.Int63()
	if !f.drawn {
		f.first, f.drawn = v, true
	}
	return v
}

// referenceRTTs tabulates every pair's healthy RTT from its definition: the
// first normal draw of a math/rand generator seeded per pair, no cache.
func referenceRTTs(m *Model) [][]float64 {
	n := m.N()
	ref := make([][]float64, n)
	for a := range ref {
		ref[a] = make([]float64, n)
	}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			r := rand.New(rand.NewSource(m.jseed ^ (int64(lo)<<20 | int64(hi))))
			rtt := m.rttTo(m.pts[lo], m.pts[hi]) * max(1+m.cfg.Jitter*r.NormFloat64(), 0.5)
			ref[lo][hi] = max(rtt, m.cfg.MinRTT)
			ref[hi][lo] = ref[lo][hi]
		}
	}
	return ref
}

// TestRTTMatchesPerPairSeeding holds every pair of a 300-peer model to the
// reference, cold and warm, with the cache unbounded, full and disabled,
// healthy and under regional degradation.
func TestRTTMatchesPerPairSeeding(t *testing.T) {
	const n = 300
	m, _ := testModel(t, n, 21)
	ref := referenceRTTs(m)
	for _, tc := range []struct {
		name string
		jcap int
	}{{"cached", maxJitterCacheEntries}, {"cache-full", 1000}, {"cache-disabled", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := testModel(t, n, 21)
			m.jcap = tc.jcap
			check := func(pass string) {
				t.Helper()
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						want := ref[a][b] * max(factor(m, a), factor(m, b))
						if got := m.RTT(a, b); got != want {
							t.Fatalf("%s: RTT(%d,%d) = %v, reference %v", pass, a, b, got, want)
						}
					}
				}
			}
			check("cold")
			if want := min(tc.jcap, n*(n-1)/2); len(m.jcache) != want {
				t.Fatalf("cache holds %d pairs, want %d", len(m.jcache), want)
			}
			check("warm")
			for i := 0; i < n; i += 7 {
				m.SetLatencyFactor(i, 1+float64(i%5))
			}
			check("degraded")
			m.ClearLatencyFactors()
			check("restored")
		})
	}
}

// TestRTTConcurrentColdPairs exercises the concurrent-reader promise in
// Model's doc comment: several goroutines ask one Model for overlapping sets of never-seen pairs. Run
// under -race; values must still equal the reference.
func TestRTTConcurrentColdPairs(t *testing.T) {
	const n, readers = 200, 6
	m, _ := testModel(t, n, 33)
	ref := referenceRTTs(m)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := g % 2; a < n; a += 2 {
				for b := 0; b < n; b++ {
					if got := m.RTT(a, b); got != ref[a][b] {
						t.Errorf("reader %d: RTT(%d,%d) = %v, reference %v", g, a, b, got, ref[a][b])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRTTColdPairNoAlloc: a link's first message pays for six modular
// multiplications, not for a generator.
func TestRTTColdPairNoAlloc(t *testing.T) {
	const n = 400
	m, _ := testModel(t, n, 44)
	m.jcap = 0 // every call is a cold pair
	// The first rejected draw allocates the fallback generator, once.
	for b := 1; m.jsrc.full == nil; b++ {
		if b == n {
			t.Fatal("no pair of peer 0 took the fallback path")
		}
		m.RTT(0, b)
	}
	a, b := 1, 2
	allocs := testing.AllocsPerRun(5000, func() {
		m.RTT(a, b)
		if b++; b == n {
			a, b = a+1, a+2
		}
	})
	if allocs != 0 {
		t.Fatalf("cold-pair RTT allocates %v objects per call, want 0", allocs)
	}
}

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
// seed), random 64-bit, the int64 extremes — the closed-form first draw must
// equal the seeded generator's first Int63, the ziggurat fast path must
// accept exactly the seeds whose first draw math/rand accepts and return the
// same float64 bits, and pairNorm must equal NormFloat64 on every seed,
// including those whose first draw is rejected.
func TestFirstInt63(t *testing.T) {
	seeds := testSeeds(200_000, 600_000)
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

// testSeeds lists the edge seeds, ±sequential small seeds, the k·(2³¹−1)
// seeds and their successors, and random 64-bit seeds; a tenth of the
// sequential and random ones under -short.
func testSeeds(sequential, random int) []int64 {
	if testing.Short() {
		sequential, random = sequential/10, random/10
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
	return seeds
}

func checkSeeds(t *testing.T, seeds []int64, start, stride int) {
	// Re-seeding a math/rand source resets all of its state, so one
	// generator is the reference for every seed; firstDraw records what the
	// ziggurat consumed first.
	ref := firstDraw{Source: rand.NewSource(0)}
	want := rand.New(&ref)
	checked, fallbacks := 0, 0
	for i := start; i < len(seeds); i += stride {
		seed := seeds[i]
		ref.Seed(seed)
		b := want.NormFloat64()
		if a := draw(lehmerSeed(seed), 1); a != ref.first {
			t.Fatalf("seed %d: closed-form first draw = %d, math/rand's first Int63 = %d", seed, a, ref.first)
		}
		fast, ok := zigFirst(int32(ref.first >> 31))
		if ok != (ref.drawn == 1) {
			t.Fatalf("seed %d: fast path accepts = %v, math/rand drew %d times", seed, ok, ref.drawn)
		}
		if ok && math.Float64bits(fast) != math.Float64bits(b) {
			t.Fatalf("seed %d: fast path = %v, NormFloat64 = %v", seed, fast, b)
		}
		if a := pairNorm(seed); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d: pairNorm = %v, NormFloat64 = %v (after %d draws)", seed, a, b, ref.drawn)
		}
		// And every 512th against a freshly allocated generator.
		if checked%512 == 0 {
			if a, b := pairNorm(seed), rand.New(rand.NewSource(seed)).NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: pairNorm = %v, %v from a fresh generator", seed, a, b)
			}
		}
		checked++
		if !ok {
			fallbacks++
		}
	}
	if fallbacks < checked/100 {
		t.Fatalf("only %d of %d seeds took the fallback path, want at least %d", fallbacks, checked, checked/100)
	}
}

// firstDraw wraps a seeded source and keeps the first value drawn since the
// last Seed, and the number of draws.
type firstDraw struct {
	rand.Source
	first int64
	drawn int
}

func (f *firstDraw) Seed(seed int64) {
	f.Source.Seed(seed)
	f.drawn = 0
}

func (f *firstDraw) Int63() int64 {
	v := f.Source.Int63()
	if f.drawn++; f.drawn == 1 {
		f.first = v
	}
	return v
}

// TestPairSourceStream: pairSource's first 300 draws equal
// rand.NewSource(seed)'s, across the handover from the closed form (draws
// 1–273) to the seeded generator.
func TestPairSourceStream(t *testing.T) {
	seeds := testSeeds(2_000, 6_000)
	var src pairSource
	for _, seed := range seeds {
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 1; k <= 300; k++ {
			if a, b := src.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d: pairSource draw %d = %d, math/rand %d", seed, k, a, b)
			}
		}
	}
}

// TestZigguratStripEdges holds the fast path to NormFloat64 at the edges of
// every strip: for each of the 128 strips and both signs, the members of the
// strip on either side of its threshold, plus the extreme draws.
func TestZigguratStripEdges(t *testing.T) {
	src := chosenFirst{Source: rand.NewSource(5)}
	r := rand.New(&src)
	check := func(j int64) {
		if j < math.MinInt32 || j > math.MaxInt32 {
			return
		}
		src.first, src.drawn = int64(uint32(j))<<31, 0
		want := r.NormFloat64()
		got, ok := zigFirst(int32(j))
		if ok != (src.drawn == 1) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("first draw %d: fast path (%v, %v), NormFloat64 %v after %d draws", j, got, ok, want, src.drawn)
		}
	}
	for _, j := range []int64{0, 1, -1, 127, -127, 128, -128, math.MaxInt32, math.MinInt32, math.MinInt32 + 1} {
		check(j)
	}
	for i := int64(0); i < 128; i++ {
		lim := int64(zigLimit[i])
		// The members of strip i nearest to +lim and to −lim.
		for _, c := range []int64{lim - lim&127 + i, -lim - (-lim)&127 + i} {
			for d := int64(-2); d <= 2; d++ {
				check(c + d<<7)
			}
		}
	}
}

// chosenFirst serves a chosen first draw, then its wrapped source's stream,
// and counts the draws.
type chosenFirst struct {
	rand.Source
	first int64
	drawn int
}

func (c *chosenFirst) Int63() int64 {
	if c.drawn++; c.drawn == 1 {
		return c.first
	}
	return c.Source.Int63()
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
// reference, cold and warm, healthy and under regional degradation, after
// each of three call histories. The cases keep the names of the memo
// configurations RTT once had, and the history each one's value depended on:
// "cached" starts from a fresh model, "cache-full" from one that has already
// served 1000 other pairs, and "cache-disabled" from one whose first call for
// every pair is made under degradation. A pure RTT gives the reference after
// all three.
func TestRTTMatchesPerPairSeeding(t *testing.T) {
	const n = 300
	m, _ := testModel(t, n, 21)
	ref := referenceRTTs(m)
	degradeSome := func(m *Model) {
		for i := 0; i < n; i += 7 {
			m.SetLatencyFactor(i, 1+float64(i%5))
		}
	}
	for _, tc := range []struct {
		name    string
		history func(m *Model)
	}{
		{"cached", func(*Model) {}},
		{"cache-full", func(m *Model) {
			for a, served := n-1, 0; served < 1000; a-- {
				for b := 0; b < a && served < 1000; b++ {
					m.RTT(a, b)
					served++
				}
			}
		}},
		{"cache-disabled", func(m *Model) {
			degradeSome(m)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					m.RTT(b, a)
				}
			}
			m.ClearLatencyFactors()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := testModel(t, n, 21)
			tc.history(m)
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
			check("warm")
			degradeSome(m)
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

// TestRTTNoAlloc: an RTT costs a closed-form draw, not a generator, and the
// pairs the ziggurat rejects reuse a pooled one. Skipped under -short: the
// race pass runs short, and sync.Pool drops items at random under -race.
func TestRTTNoAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 400
	m, _ := testModel(t, n, 44)
	seed := func(a, b int) int64 { return m.jseed ^ (int64(a)<<20 | int64(b)) }
	rejected := 0
	for b := 2; b < n; b++ {
		if _, ok := zigFirst(int32(draw(lehmerSeed(seed(1, b)), 1) >> 31)); !ok {
			if rejected++; rejected == 1 {
				m.RTT(1, b) // the pool's first fill
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no pair of peer 1 takes the fallback path")
	}
	a, b := 1, 2
	allocs := testing.AllocsPerRun(5000, func() {
		m.RTT(a, b)
		if b++; b == n {
			a, b = a+1, a+2
		}
	})
	if allocs != 0 {
		t.Fatalf("RTT allocates %v objects per call, want 0", allocs)
	}
}

package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// factor is peer i's current RTT inflation, 1 when healthy.
func factor(m *Model, i int) float64 {
	if m.factors == nil {
		return 1
	}
	return m.factors[i]
}

func testModel(t *testing.T, n int, seed int64) (*Model, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := Place(n, DefaultPlacement(), r)
	return NewModel(pts, 1000, DefaultLatency(), seed), r
}

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if a.Dist(a) != 0 {
		t.Fatal("self-distance not zero")
	}
	if s := b.String(); s != "(3.00,4.00)" {
		t.Fatalf("String = %q", s)
	}
}

func TestPlaceUniformBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := Place(500, PlacementConfig{Side: 100}, r)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("point %v outside universe", p)
		}
	}
}

func TestPlaceClusteredBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := PlacementConfig{Side: 1000, Clusters: 10, ClusterSpread: 0.05}
	pts := Place(1000, cfg, r)
	for _, p := range pts {
		if p.X < 0 || p.X > 1000 || p.Y < 0 || p.Y > 1000 {
			t.Fatalf("point %v outside universe", p)
		}
	}
}

func TestPlaceDefaultsOnZeroSide(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := Place(10, PlacementConfig{}, r)
	for _, p := range pts {
		if p.X > 1000 || p.Y > 1000 {
			t.Fatalf("default side not applied: %v", p)
		}
	}
}

func TestRTTProperties(t *testing.T) {
	m, _ := testModel(t, 200, 7)
	for i := 0; i < 200; i++ {
		if m.RTT(i, i) != 0 {
			t.Fatalf("self RTT non-zero for %d", i)
		}
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		a, b := r.Intn(200), r.Intn(200)
		if a == b {
			continue
		}
		ab, ba := m.RTT(a, b), m.RTT(b, a)
		if ab != ba {
			t.Fatalf("RTT asymmetric: RTT(%d,%d)=%v RTT(%d,%d)=%v", a, b, ab, b, a, ba)
		}
		if ab < 10 {
			t.Fatalf("RTT(%d,%d)=%v below paper minimum 10ms", a, b, ab)
		}
		// Jitter can exceed MaxRTT slightly; allow 3 sigma.
		if ab > 500*1.4 {
			t.Fatalf("RTT(%d,%d)=%v implausibly above max", a, b, ab)
		}
		if ow := m.OneWay(a, b); ow != ab/2 {
			t.Fatalf("OneWay != RTT/2")
		}
	}
}

func TestRTTRangeNoJitter(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := Place(300, PlacementConfig{Side: 1000}, r)
	m := NewModel(pts, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 5)
	for trial := 0; trial < 3000; trial++ {
		a, b := rand.Intn(300), rand.Intn(300)
		if a == b {
			continue
		}
		rtt := m.RTT(a, b)
		if rtt < 10 || rtt > 500 {
			t.Fatalf("RTT %v outside [10,500] without jitter", rtt)
		}
	}
}

func TestRTTDeterministic(t *testing.T) {
	m1, _ := testModel(t, 100, 13)
	m2, _ := testModel(t, 100, 13)
	for a := 0; a < 100; a++ {
		for b := a + 1; b < 100; b += 7 {
			if m1.RTT(a, b) != m2.RTT(a, b) {
				t.Fatalf("same-seed models disagree on RTT(%d,%d)", a, b)
			}
		}
	}
}

func TestRTTMonotoneInDistance(t *testing.T) {
	// Without jitter, RTT must strictly increase with plane distance.
	pts := []Point{{0, 0}, {100, 0}, {400, 0}, {900, 0}}
	m := NewModel(pts, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	d1, d2, d3 := m.RTT(0, 1), m.RTT(0, 2), m.RTT(0, 3)
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("RTT not monotone: %v %v %v", d1, d2, d3)
	}
}

func TestNewModelFallbacks(t *testing.T) {
	pts := []Point{{0, 0}, {10, 10}}
	m := NewModel(pts, -1, LatencyConfig{MinRTT: 5, MaxRTT: 5}, 0)
	// Invalid latency config falls back to defaults.
	if rtt := m.RTT(0, 1); rtt < 10 {
		t.Fatalf("fallback config not applied, RTT=%v", rtt)
	}
}

func TestLandmarkSpread(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lm := NewLandmarks(4, 1000, r)
	if len(lm.pts) != 4 {
		t.Fatalf("K = %d", len(lm.pts))
	}
	pts := lm.pts
	if len(pts) != 4 {
		t.Fatalf("%d landmark points", len(pts))
	}
	// Farthest-point placement should keep landmarks well apart.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) < 100 {
				t.Fatalf("landmarks %d,%d too close: %v", i, j, pts[i].Dist(pts[j]))
			}
		}
	}
}

func TestLandmarksDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	lm := NewLandmarks(0, 0, r)
	if len(lm.pts) != 1 {
		t.Fatalf("K = %d, want clamped 1", len(lm.pts))
	}
}

func TestOrderingIsPermutationSortedByRTT(t *testing.T) {
	m, r := testModel(t, 50, 31)
	lm := NewLandmarks(4, 1000, r)
	for a := 0; a < 50; a++ {
		ord := lm.Ordering(m, a)
		seen := make(map[int]bool)
		for _, v := range ord {
			if v < 0 || v >= 4 || seen[v] {
				t.Fatalf("ordering %v is not a permutation", ord)
			}
			seen[v] = true
		}
		pts := lm.pts
		for i := 1; i < len(ord); i++ {
			if m.RTTToPoint(a, pts[ord[i-1]]) > m.RTTToPoint(a, pts[ord[i]]) {
				t.Fatalf("ordering %v not sorted by RTT for peer %d", ord, a)
			}
		}
	}
}

func TestNumLocIDs(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120}
	for k, want := range cases {
		if got := NumLocIDs(k); got != want {
			t.Errorf("NumLocIDs(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for k := 1; k <= 5; k++ {
		seen := make(map[LocID]bool)
		// Enumerate all permutations via decode and re-encode.
		for id := 0; id < NumLocIDs(k); id++ {
			perm := DecodeLocID(LocID(id), k)
			got := EncodeOrdering(perm)
			if got != LocID(id) {
				t.Fatalf("k=%d round trip %d -> %v -> %d", k, id, perm, got)
			}
			if seen[got] {
				t.Fatalf("duplicate locId %d at k=%d", got, k)
			}
			seen[got] = true
		}
	}
}

func TestEncodeOrderingKnownValues(t *testing.T) {
	// Lexicographic rank of permutations of {0,1,2}.
	cases := []struct {
		perm []int
		want LocID
	}{
		{[]int{0, 1, 2}, 0},
		{[]int{0, 2, 1}, 1},
		{[]int{1, 0, 2}, 2},
		{[]int{1, 2, 0}, 3},
		{[]int{2, 0, 1}, 4},
		{[]int{2, 1, 0}, 5},
	}
	for _, c := range cases {
		if got := EncodeOrdering(c.perm); got != c.want {
			t.Errorf("EncodeOrdering(%v) = %d, want %d", c.perm, got, c.want)
		}
	}
}

func TestEncodeOrderingPanicsOnBadInput(t *testing.T) {
	for _, bad := range [][]int{{0, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeOrdering(%v) did not panic", bad)
				}
			}()
			EncodeOrdering(bad)
		}()
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeLocID out of range did not panic")
		}
	}()
	DecodeLocID(24, 4)
}

func TestLocatorPaperScale(t *testing.T) {
	// Paper setup: 1000 peers, 4 landmarks -> 24 locIds. Close peers must
	// share locIds; the mean occupied-locality population should comfortably
	// exceed the 5-landmark case.
	r := rand.New(rand.NewSource(99))
	pts := Place(1000, DefaultPlacement(), r)
	m := NewModel(pts, 1000, DefaultLatency(), 99)
	lm4 := NewLandmarks(4, 1000, r)
	loc4 := NewLocator(m, lm4)
	for a := 0; a < 1000; a++ {
		if id := loc4.LocID(a); id < 0 || int(id) >= 24 {
			t.Fatalf("locId %d out of range", id)
		}
	}
	census := loc4.Census()
	total := 0
	for _, c := range census {
		total += c
	}
	if total != 1000 {
		t.Fatalf("census total = %d", total)
	}
	mean4 := loc4.MeanPeersPerOccupiedLocID()

	lm5 := NewLandmarks(5, 1000, r)
	loc5 := NewLocator(m, lm5)
	mean5 := loc5.MeanPeersPerOccupiedLocID()
	if mean5 >= mean4 {
		t.Fatalf("expected sparser localities with 5 landmarks: mean4=%v mean5=%v", mean4, mean5)
	}
}

func TestNearbyPeersShareLocID(t *testing.T) {
	// Two coincident peers must always share a locId.
	pts := []Point{{100, 100}, {100, 100}, {900, 900}}
	m := NewModel(pts, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	lm := FixedLandmarks([]Point{{0, 0}, {1000, 0}, {0, 1000}, {1000, 1000}})
	loc := NewLocator(m, lm)
	if loc.LocID(0) != loc.LocID(1) {
		t.Fatal("coincident peers got different locIds")
	}
	if loc.LocID(0) == loc.LocID(2) {
		t.Fatal("opposite-corner peers share a locId under symmetric landmarks")
	}
}

func TestLocIDQuickProperty(t *testing.T) {
	// Property: for any peer position, EncodeOrdering(Ordering(peer)) is
	// stable and within range.
	lmPts := []Point{{0, 0}, {1000, 0}, {0, 1000}, {500, 500}}
	lm := FixedLandmarks(lmPts)
	prop := func(x, y uint16) bool {
		px := float64(x%1000) + 0.5 // avoid exact ties on the grid
		py := float64(y%1000) + 0.25
		m := NewModel([]Point{{px, py}}, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
		ord := lm.Ordering(m, 0)
		id := EncodeOrdering(ord)
		if id < 0 || int(id) >= 24 {
			return false
		}
		ord2 := lm.Ordering(m, 0)
		return EncodeOrdering(ord2) == id
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleLikeGeometry(t *testing.T) {
	// The geometric baseline (no jitter) satisfies a relaxed triangle
	// inequality: RTT(a,c) <= RTT(a,b)+RTT(b,c). (The +MinRTT offsets only
	// help the inequality.)
	r := rand.New(rand.NewSource(17))
	pts := Place(60, PlacementConfig{Side: 1000}, r)
	m := NewModel(pts, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 0)
	for trial := 0; trial < 2000; trial++ {
		a, b, c := r.Intn(60), r.Intn(60), r.Intn(60)
		if a == b || b == c || a == c {
			continue
		}
		if m.RTT(a, c) > m.RTT(a, b)+m.RTT(b, c)+1e-9 {
			t.Fatalf("triangle violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestMeanPeersEmptyLocator(t *testing.T) {
	m := NewModel(nil, 1000, DefaultLatency(), 0)
	lm := FixedLandmarks([]Point{{0, 0}})
	loc := NewLocator(m, lm)
	if got := loc.MeanPeersPerOccupiedLocID(); got != 0 {
		t.Fatalf("empty locator mean = %v", got)
	}
}

func TestClampHelper(t *testing.T) {
	if clamp(-5, 0, 10) != 0 || clamp(15, 0, 10) != 10 || clamp(5, 0, 10) != 5 {
		t.Fatal("clamp misbehaves")
	}
	if math.IsNaN(clamp(math.NaN(), 0, 10)) == false {
		t.Skip("NaN propagates; acceptable")
	}
}

func TestLatencyFactorsDegradeAndRestore(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := Place(20, DefaultPlacement(), r)
	m := NewModel(pts, DefaultPlacement().Side, DefaultLatency(), 3)

	healthy01 := m.RTT(0, 1)
	healthy23 := m.RTT(2, 3)
	m.SetLatencyFactor(0, 3)
	if got := m.RTT(0, 1); got != 3*healthy01 {
		t.Fatalf("degraded RTT(0,1) = %v, want %v", got, 3*healthy01)
	}
	if got := m.RTT(1, 0); got != 3*healthy01 {
		t.Fatalf("degradation must stay symmetric: %v", got)
	}
	if got := m.RTT(2, 3); got != healthy23 {
		t.Fatalf("unrelated pair inflated: %v vs %v", got, healthy23)
	}
	if factor(m, 0) != 3 || factor(m, 1) != 1 {
		t.Fatalf("factors = %v, %v", factor(m, 0), factor(m, 1))
	}
	// A path's factor is the max of its endpoints', and factors below 1
	// clamp to 1 (no acceleration).
	m.SetLatencyFactor(1, 0.25)
	if got := m.RTT(0, 1); got != 3*healthy01 {
		t.Fatalf("max-endpoint rule broken: %v", got)
	}
	if factor(m, 1) != 1 {
		t.Fatalf("sub-1 factor not clamped: %v", factor(m, 1))
	}
	if m.RTT(0, 0) != 0 {
		t.Fatal("self RTT must stay zero")
	}
	m.ClearLatencyFactors()
	if got := m.RTT(0, 1); got != healthy01 {
		t.Fatalf("restore drifted: %v vs healthy %v", got, healthy01)
	}
}

package overlay

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// paperBuild is the paper's topology, average degree 3, with the degree cap
// core's default world uses.
var paperBuild = BuildConfig{AvgDegree: 3, MaxDegree: 12}

func TestGraphErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddLink(0, 0); err != ErrSelfLink {
		t.Fatalf("self link: %v", err)
	}
	if err := g.AddLink(-1, 0); err != ErrBadPeer {
		t.Fatalf("bad peer: %v", err)
	}
	if err := g.AddLink(0, 3); err != ErrBadPeer {
		t.Fatalf("bad peer high: %v", err)
	}
	g.Leave(1)
	if err := g.AddLink(0, 1); err != ErrOffline {
		t.Fatalf("offline link: %v", err)
	}
	if err := g.Join(3); err != ErrBadPeer {
		t.Fatalf("join bad peer: %v", err)
	}
	if g.Linked(-1, 0) || g.Degree(-5) != 0 || g.Neighbors(-1) != nil {
		t.Fatal("invalid ids should be inert")
	}
	for _, p := range []PeerID{-1, 0} { // an invalid id, and a peer not linked to 2
		if d, i := g.LinkDelay(p, 2); d != 0 || i != -1 {
			t.Fatalf("LinkDelay(%d, 2) = %d, %d; want 0, -1", p, d, i)
		}
	}
	if g.Online(-1) {
		t.Fatal("invalid id online")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(10)
	for _, q := range []PeerID{7, 3, 9, 1} {
		if err := g.AddLink(5, q); err != nil {
			t.Fatal(err)
		}
	}
	ns := g.Neighbors(5)
	want := []PeerID{1, 3, 7, 9}
	if !slices.Equal(ns, want) {
		t.Fatalf("neighbors = %v, want %v", ns, want)
	}
}

func TestLeaveJoin(t *testing.T) {
	g := NewGraph(4)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 1, 2)
	mustLink(t, g, 1, 3)
	former := g.Leave(1)
	if len(former) != 3 {
		t.Fatalf("former = %v", former)
	}
	if g.Online(1) || g.Degree(1) != 0 || g.Edges() != 0 {
		t.Fatal("leave did not clear links")
	}
	if g.Leave(1) != nil {
		t.Fatal("second leave should return nil")
	}
	if err := g.Join(1); err != nil {
		t.Fatal(err)
	}
	if !g.Online(1) {
		t.Fatal("join failed")
	}
}

// components is the sizes of g's connected components among online peers,
// largest first.
func components(g *Graph) []int {
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
	slices.SortFunc(sizes, func(a, b int) int { return b - a })
	return sizes
}

// connected reports whether all online peers form one component.
func connected(g *Graph) bool { return len(components(g)) <= 1 }

func TestBuildRandomPaperScale(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := BuildRandom(1000, paperBuild, r)
	if !connected(g) {
		t.Fatal("built overlay disconnected")
	}
	avg := g.AvgDegree()
	if avg < 2.5 || avg > 3.5 {
		t.Fatalf("avg degree %.2f, want ~3 (paper)", avg)
	}
	for i := 0; i < 1000; i++ {
		if d := g.Degree(PeerID(i)); d > 12 {
			t.Fatalf("degree cap violated: peer %d has degree %d", i, d)
		}
		if g.Degree(PeerID(i)) == 0 {
			t.Fatalf("peer %d isolated", i)
		}
	}
}

// TestBuildRandomWindowsAreDisjoint: BuildRandom carves every adjacency
// from one block, each window capped at its own slots. Growing one peer far
// past its window, and its twenty new neighbours one slot each, must leave
// every other peer's list as it was, bar the new links, and every link's
// filled delay slot as it was: a row moves with its delays.
func TestBuildRandomWindowsAreDisjoint(t *testing.T) {
	g := BuildRandom(200, paperBuild, rand.New(rand.NewSource(3)))
	before := make([][]PeerID, g.N())
	slot := func(p, q PeerID) uint32 { return uint32(min(p, q))<<16 | uint32(max(p, q)) }
	for p := range before {
		before[p] = slices.Clone(g.Neighbors(PeerID(p)))
		for i, q := range before[p] {
			g.SetLinkDelay(PeerID(p), i, slot(PeerID(p), q))
		}
	}
	hub, added := PeerID(100), map[PeerID]bool{}
	for q := PeerID(0); len(added) < 20; q++ {
		if q != hub && !g.Linked(hub, q) {
			if err := g.AddLink(hub, q); err != nil {
				t.Fatal(err)
			}
			added[q] = true
		}
	}
	for p := range before {
		want := slices.Clone(before[p])
		if PeerID(p) == hub {
			for q := range added {
				want = append(want, q)
			}
		} else if added[PeerID(p)] {
			want = append(want, hub)
		}
		slices.Sort(want)
		if got := g.Neighbors(PeerID(p)); !slices.Equal(got, want) {
			t.Fatalf("peer %d: neighbours %v, want %v", p, got, want)
		}
		for _, q := range want {
			if d, _ := g.LinkDelay(PeerID(p), q); d != slot(PeerID(p), q) && (d != 0 || slices.Contains(before[p], q)) {
				t.Fatalf("link %d→%d: delay slot %d", p, q, d)
			}
		}
	}
}

// TestGrowthBlockSizedToGraph: a row that outgrows its window is carved
// from a block of ⌈n/16⌉ windows, at most 64, and a block is used up
// before the next is made. A bare row's first window holds 4 ids and their
// 4 delays.
func TestGrowthBlockSizedToGraph(t *testing.T) {
	const size = 8
	for _, c := range []struct{ n, windows int }{{96, 6}, {97, 7}, {2000, 64}} {
		g := NewGraph(c.n)
		for k := 1; k <= c.windows+1; k++ {
			g.insert(PeerID(k), 0, 0)
			if want := size * (c.windows - (k-1)%c.windows - 1); len(g.block) != want {
				t.Fatalf("%d peers, %d rows grown: %d slots left in the block, want %d", c.n, k, len(g.block), want)
			}
		}
	}
}

func TestBuildRandomSmall(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if g := BuildRandom(0, paperBuild, r); g.N() != 0 {
		t.Fatal("empty build broken")
	}
	if g := BuildRandom(1, paperBuild, r); g.Edges() != 0 {
		t.Fatal("single-node build has edges")
	}
	g := BuildRandom(2, paperBuild, r)
	if !g.Linked(0, 1) {
		t.Fatal("two-node build should link the pair")
	}
}

func TestBuildRandomDeterministic(t *testing.T) {
	g1 := BuildRandom(300, paperBuild, rand.New(rand.NewSource(5)))
	g2 := BuildRandom(300, paperBuild, rand.New(rand.NewSource(5)))
	if g1.Edges() != g2.Edges() {
		t.Fatal("same-seed builds differ in edge count")
	}
	for i := 0; i < 300; i++ {
		if !slices.Equal(g1.Neighbors(PeerID(i)), g2.Neighbors(PeerID(i))) {
			t.Fatalf("peer %d neighbor sets differ", i)
		}
	}
}

// TestMaxDegreeCapHolds builds where the cap binds — 600 links for 200
// peers capped at 7 fill most peers to the cap — and churns: no build, leave
// repair or rejoin may take a peer past MaxDegree.
func TestMaxDegreeCapHolds(t *testing.T) {
	const n, maxDegree = 200, 7
	churn := ChurnConfig{LeaveProb: 0.1, JoinProb: 0.5, AvgDegree: 6, MaxDegree: maxDegree, MinOnlineFraction: 0.5}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := BuildRandom(n, BuildConfig{AvgDegree: 6, MaxDegree: maxDegree}, r)
		atCap := 0
		for step := 0; step <= 20; step++ {
			for p := PeerID(0); p < n; p++ {
				if d := g.Degree(p); d > maxDegree {
					t.Fatalf("seed %d after %d churn steps: peer %d has degree %d, cap %d", seed, step, p, d, maxDegree)
				} else if d == maxDegree {
					atCap++
				}
			}
			ChurnStep(g, churn, r)
		}
		if atCap == 0 {
			t.Fatalf("seed %d: no peer ever reached the cap; the test does not bind it", seed)
		}
	}
}

func TestRandomOnlinePeer(t *testing.T) {
	g := NewGraph(4)
	g.Leave(0)
	g.Leave(1)
	r := rand.New(rand.NewSource(3))
	excl := map[PeerID]bool{2: true}
	for i := 0; i < 20; i++ {
		if p := g.RandomOnlinePeer(r, excl); p != 3 {
			t.Fatalf("got %d, want 3", p)
		}
	}
	excl[3] = true
	if p := g.RandomOnlinePeer(r, excl); p != -1 {
		t.Fatalf("expected -1 with all excluded, got %d", p)
	}
}

func TestRewireJoin(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := BuildRandom(100, paperBuild, r)
	former := g.Leave(42)
	RepairAfterLeave(g, former, 3, 12)
	if err := g.Join(42); err != nil {
		t.Fatal(err)
	}
	RewireJoin(g, 42, 3, 12, r)
	if g.Degree(42) < 1 {
		t.Fatal("rejoined peer has no links")
	}
	if !connected(g) {
		t.Fatal("graph disconnected after leave/repair/join cycle")
	}
}

func TestRepairAfterLeaveKeepsConnectivity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := BuildRandom(200, paperBuild, r)
	for i := 0; i < 30; i++ {
		p := g.RandomOnlinePeer(r, nil)
		former := g.Leave(p)
		RepairAfterLeave(g, former, 3, 12)
	}
	cc := components(g)
	if len(cc) == 0 {
		t.Fatal("no components")
	}
	// Repair keeps the giant component overwhelmingly dominant.
	if float64(cc[0]) < 0.95*float64(g.OnlineCount()) {
		t.Fatalf("giant component %d of %d online after churn", cc[0], g.OnlineCount())
	}
}

func TestChurnStep(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := BuildRandom(300, paperBuild, r)
	cfg := DefaultChurn()
	var totalLeft, totalJoined int
	for round := 0; round < 50; round++ {
		left, joined := ChurnStep(g, cfg, r)
		totalLeft += len(left)
		totalJoined += len(joined)
	}
	if totalLeft == 0 {
		t.Fatal("no peer ever left under churn")
	}
	if totalJoined == 0 {
		t.Fatal("no peer ever rejoined under churn")
	}
	if frac := float64(g.OnlineCount()) / 300; frac < cfg.MinOnlineFraction {
		t.Fatalf("online fraction %.2f below floor", frac)
	}
	// A round's lists and a departure's former neighbours are the graph's
	// own: once they have grown, churning isolated peers allocates nothing.
	iso, flip := NewGraph(64), ChurnConfig{LeaveProb: 1, JoinProb: 1}
	ChurnStep(iso, flip, r) // all leave; AllocsPerRun's warm-up, all join
	if n := testing.AllocsPerRun(4, func() { ChurnStep(iso, flip, r) }); n != 0 {
		t.Fatalf("a churn round of isolated peers allocated %.1f times", n)
	}
}

func TestChurnPreservesDensity(t *testing.T) {
	// The overlay's average degree must not drift upward under sustained
	// churn: leave-repair plus rejoin-rewiring must roughly balance the
	// links each departure removes.
	r := rand.New(rand.NewSource(19))
	g := BuildRandom(400, paperBuild, r)
	before := g.AvgDegree()
	cfg := DefaultChurn()
	for round := 0; round < 200; round++ {
		ChurnStep(g, cfg, r)
	}
	after := g.AvgDegree()
	if after > before*1.25 {
		t.Fatalf("density inflated under churn: %.2f -> %.2f", before, after)
	}
	if after < before*0.5 {
		t.Fatalf("density collapsed under churn: %.2f -> %.2f", before, after)
	}
	// The giant component must still dominate.
	cc := components(g)
	if float64(cc[0]) < 0.85*float64(g.OnlineCount()) {
		t.Fatalf("giant component %d of %d online", cc[0], g.OnlineCount())
	}
}

func TestChurnFloorEnforced(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := BuildRandom(100, paperBuild, r)
	cfg := ChurnConfig{LeaveProb: 1.0, JoinProb: 0, AvgDegree: 3, MaxDegree: 12, MinOnlineFraction: 0.7}
	for i := 0; i < 10; i++ {
		ChurnStep(g, cfg, r)
	}
	if g.OnlineCount() < 70 {
		t.Fatalf("floor violated: %d online", g.OnlineCount())
	}
}

// Property: BuildRandom always yields a connected graph with exactly its
// link budget, round(n*d/2) links, for any size and reasonable degree.
func TestBuildRandomQuick(t *testing.T) {
	prop := func(nRaw, degRaw, seed uint8) bool {
		n := 10 + int(nRaw)%490
		deg := 2 + float64(degRaw%4)
		r := rand.New(rand.NewSource(int64(seed)))
		g := BuildRandom(n, BuildConfig{AvgDegree: deg, MaxDegree: 16}, r)
		return connected(g) && g.Edges() == LinkBudget(n, deg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphString(t *testing.T) {
	g := NewGraph(2)
	mustLink(t, g, 0, 1)
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func mustLink(t *testing.T, g *Graph, a, b PeerID) {
	t.Helper()
	if err := g.AddLink(a, b); err != nil {
		t.Fatalf("AddLink(%d,%d): %v", a, b, err)
	}
}

func TestBurstLeaveAndJoin(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := BuildRandom(200, paperBuild, r)

	left := BurstLeave(g, 0.25, 0.5, 12, r)
	if len(left) != 50 {
		t.Fatalf("wave departed %d peers, want 50", len(left))
	}
	if g.OnlineCount() != 150 {
		t.Fatalf("online after wave = %d", g.OnlineCount())
	}
	for _, p := range left {
		if g.Online(p) || g.Degree(p) != 0 {
			t.Fatalf("departed peer %d still wired", p)
		}
	}

	// The floor caps a wave that would collapse the overlay.
	if BurstLeave(g, 1.0, 0.5, 12, r); g.OnlineCount() != 100 {
		t.Fatalf("floor breached: %d online", g.OnlineCount())
	}

	joined := BurstJoin(g, 1.0, 3, 12, r)
	if len(joined) != 100 || g.OnlineCount() != 200 {
		t.Fatalf("rejoin brought back %d, online %d", len(joined), g.OnlineCount())
	}
	for _, p := range joined {
		if !g.Online(p) || g.Degree(p) == 0 {
			t.Fatalf("rejoined peer %d not rewired", p)
		}
	}

	if got := BurstLeave(g, 0, 0.5, 12, r); got != nil {
		t.Fatalf("zero-intensity wave departed %v", got)
	}
	if len(BurstLeave(g, 0.005, 0.5, 12, r)) != 1 || len(BurstJoin(g, 0.5, 3, 12, r)) != 1 {
		t.Fatal("a wave of 0.5 % of 200 peers, or half its one peer's rejoin, did not round to one")
	}
	if got := BurstJoin(g, 0.5, 3, 12, r); got != nil {
		t.Fatalf("join with nobody offline returned %v", got)
	}
}

func TestBurstLeaveDeterministic(t *testing.T) {
	build := func() (*Graph, []PeerID) {
		g := BuildRandom(120, paperBuild, rand.New(rand.NewSource(5)))
		return g, BurstLeave(g, 0.3, 0.2, 12, rand.New(rand.NewSource(6)))
	}
	g1, l1 := build()
	g2, l2 := build()
	if !slices.Equal(l1, l2) {
		t.Fatalf("departures differ: %v vs %v", l1, l2)
	}
	if g1.Edges() != g2.Edges() || g1.OnlineCount() != g2.OnlineCount() {
		t.Fatal("post-wave graphs differ")
	}
}

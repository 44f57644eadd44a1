package overlay

import "math/rand"

// BuildConfig parameterises random overlay construction.
type BuildConfig struct {
	// AvgDegree is the target average connectivity degree; the paper uses 3.
	AvgDegree float64
	// MaxDegree caps any single peer's degree (0 = uncapped). Gnutella
	// clients typically cap neighbour lists; a loose cap also prevents
	// degenerate hubs in small graphs.
	MaxDegree int
}

// BuildRandom constructs a connected random overlay of n peers with the
// requested average degree, using r for all choices. The construction mimics
// Gnutella bootstrap: each arriving peer links to a uniformly random peer
// already in the overlay (guaranteeing connectivity, like an arrival
// spanning tree), after which extra random links are added until the edge
// budget n*AvgDegree/2 is met.
func BuildRandom(n int, cfg BuildConfig, r *rand.Rand) *Graph {
	g := NewGraph(n)
	if n <= 1 {
		return g
	}
	if cfg.AvgDegree < 1 {
		cfg.AvgDegree = 3
	}
	// Arrival spanning tree.
	for i := 1; i < n; i++ {
		target := PeerID(r.Intn(i))
		if cfg.MaxDegree > 0 {
			for tries := 0; g.Degree(target) >= cfg.MaxDegree && tries < 16; tries++ {
				target = PeerID(r.Intn(i))
			}
		}
		_ = g.AddLink(PeerID(i), target)
	}
	// Extra random links up to the edge budget.
	budget := int(float64(float64(n)*cfg.AvgDegree/2) + 0.5)
	for tries := 0; g.Edges() < budget && tries < budget*64; tries++ {
		a := PeerID(r.Intn(n))
		b := PeerID(r.Intn(n))
		if a == b || g.Linked(a, b) {
			continue
		}
		if cfg.MaxDegree > 0 && (g.Degree(a) >= cfg.MaxDegree || g.Degree(b) >= cfg.MaxDegree) {
			continue
		}
		_ = g.AddLink(a, b)
	}
	return g
}

// RewireJoin wires a (re)joining peer p into g with approximately avgDegree
// links to random online peers, respecting maxDegree. It is the repair step
// used after churn joins.
func RewireJoin(g *Graph, p PeerID, avgDegree float64, maxDegree int, r *rand.Rand) {
	want := int(avgDegree + 0.5)
	if want < 1 {
		want = 1
	}
	excluded := map[PeerID]bool{p: true}
	for g.Degree(p) < want {
		q := g.RandomOnlinePeer(r, excluded)
		if q < 0 {
			return
		}
		excluded[q] = true
		if maxDegree > 0 && g.Degree(q) >= maxDegree {
			continue
		}
		_ = g.AddLink(p, q)
	}
}

// RepairAfterLeave reconnects the former neighbours of a departed peer
// among themselves, the standard Gnutella-style patching that keeps the
// overlay connected under churn. Each consecutive pair in the
// former-neighbour list gets a link only when one endpoint dropped below
// the target degree: unconditional patching adds ~deg-1 links per
// departure while the departed peer's eventual rejoin adds another ~deg,
// silently densifying the overlay over time (and with it every coverage
// metric).
func RepairAfterLeave(g *Graph, former []PeerID, avgDegree float64, maxDegree int) {
	target := int(avgDegree + 0.5)
	if target < 1 {
		target = 1
	}
	for i := 1; i < len(former); i++ {
		a, b := former[i-1], former[i]
		if !g.Online(a) || !g.Online(b) || g.Linked(a, b) {
			continue
		}
		if g.Degree(a) >= target && g.Degree(b) >= target {
			continue
		}
		if maxDegree > 0 && (g.Degree(a) >= maxDegree || g.Degree(b) >= maxDegree) {
			continue
		}
		_ = g.AddLink(a, b)
	}
}

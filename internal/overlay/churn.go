package overlay

import "math/rand"

// ChurnConfig describes a simple on/off churn process: every interval, each
// online peer leaves with probability LeaveProb and each offline peer
// rejoins with probability JoinProb. Participant peers in unstructured
// systems are "highly dynamic and autonomous, failing or leaving the network
// at any moment" (§3.1); this process exercises exactly that behaviour.
type ChurnConfig struct {
	LeaveProb float64
	JoinProb  float64
	AvgDegree float64
	MaxDegree int
	// MinOnlineFraction guards against the overlay collapsing in extreme
	// configurations; churn steps never take the online fraction below it.
	MinOnlineFraction float64
}

// DefaultChurn returns a mild churn setting suitable for the churn
// extension experiment.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		LeaveProb:         0.02,
		JoinProb:          0.2,
		AvgDegree:         3,
		MaxDegree:         12,
		MinOnlineFraction: 0.5,
	}
}

// BurstLeave takes approximately frac of the online peers offline in one
// wave — the correlated mass departure of a churn-wave scenario, as opposed
// to ChurnStep's independent per-peer process. Connectivity is patched the
// same way churn departures are. minOnlineFrac floors the surviving online
// population (of g.N()); the wave never shrinks below it. The departed
// peers are returned in departure order.
func BurstLeave(g *Graph, frac, minOnlineFrac float64, maxDegree int, r *rand.Rand) []PeerID {
	if frac <= 0 {
		return nil
	}
	online := make([]PeerID, 0, g.N())
	for i := 0; i < g.N(); i++ {
		if g.Online(PeerID(i)) {
			online = append(online, PeerID(i))
		}
	}
	count := int(float64(frac*float64(len(online))) + 0.5)
	if floor := int(minOnlineFrac * float64(g.N())); len(online)-count < floor {
		count = len(online) - floor
	}
	if count <= 0 {
		return nil
	}
	r.Shuffle(len(online), func(i, j int) { online[i], online[j] = online[j], online[i] })
	left := make([]PeerID, 0, count)
	for _, p := range online[:count] {
		former := g.Leave(p)
		RepairAfterLeave(g, former, 1, maxDegree)
		left = append(left, p)
	}
	return left
}

// BurstJoin brings approximately frac of the offline peers back online in
// one wave, rewiring each to ~avgDegree random online neighbours. It
// returns the joined peers in join order.
func BurstJoin(g *Graph, frac, avgDegree float64, maxDegree int, r *rand.Rand) []PeerID {
	if frac <= 0 {
		return nil
	}
	offline := make([]PeerID, 0, g.N())
	for i := 0; i < g.N(); i++ {
		if p := PeerID(i); !g.Online(p) {
			offline = append(offline, p)
		}
	}
	count := int(float64(frac*float64(len(offline))) + 0.5)
	if count > len(offline) {
		count = len(offline)
	}
	if count <= 0 {
		return nil
	}
	r.Shuffle(len(offline), func(i, j int) { offline[i], offline[j] = offline[j], offline[i] })
	joined := make([]PeerID, 0, count)
	for _, p := range offline[:count] {
		_ = g.Join(p)
		RewireJoin(g, p, avgDegree, maxDegree, r)
		joined = append(joined, p)
	}
	return joined
}

// ChurnStep applies one round of the churn process to g and returns the
// peers that left and those that joined during this round.
func ChurnStep(g *Graph, cfg ChurnConfig, r *rand.Rand) (left, joined []PeerID) {
	minOnline := int(cfg.MinOnlineFraction * float64(g.N()))
	for i := 0; i < g.N(); i++ {
		p := PeerID(i)
		if g.Online(p) {
			if g.OnlineCount() > minOnline && r.Float64() < cfg.LeaveProb {
				former := g.Leave(p)
				// Rescue only isolated former neighbours (target degree
				// 1): each eventual rejoin already adds ~AvgDegree links,
				// so any additional unconditional patching inflates
				// overlay density round over round and with it every
				// coverage-dependent metric.
				RepairAfterLeave(g, former, 1, cfg.MaxDegree)
				left = append(left, p)
			}
		} else if r.Float64() < cfg.JoinProb {
			_ = g.Join(p)
			RewireJoin(g, p, cfg.AvgDegree, cfg.MaxDegree, r)
			joined = append(joined, p)
		}
	}
	return left, joined
}

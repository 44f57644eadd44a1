package netmodel

import "math"

// LatencyConfig maps plane distances to round-trip times.
type LatencyConfig struct {
	// MinRTT and MaxRTT bound the pairwise RTT in milliseconds. The paper's
	// BRITE-inspired model assigns latencies between 10 and 500 ms.
	MinRTT, MaxRTT float64
	// Jitter is the coefficient of a multiplicative log-normal noise applied
	// per pair (deterministically, from the pair's identity), modelling
	// routing inflation over the geometric baseline. 0 disables it.
	Jitter float64
}

// DefaultLatency returns the paper's 10–500 ms range with mild jitter.
func DefaultLatency() LatencyConfig {
	return LatencyConfig{MinRTT: 10, MaxRTT: 500, Jitter: 0.1}
}

// Model is a physical-network instance: peer coordinates plus the
// distance→RTT mapping. A pair's RTT is computed on every call from the
// geometry and the pair's jitter (jitter.go), with no memo: the read methods
// are safe for concurrent readers, and the one shared state they touch is
// spare, the generators for the pairs the closed form cannot draw, behind
// its mutex. The optional per-peer latency factors (regional-degradation
// dynamics) are written only between events on the owning simulation's
// engine goroutine. The memo lives with the links instead: a protocol
// network stores a link's healthy OneWay in the overlay row's delay slot
// on its first message and reads it from there while no factor is set
// (Degraded), so per message it calls the model only off the links.
type Model struct {
	cfg   LatencyConfig
	pts   []Point
	diag  float64 // plane diagonal used for normalisation
	jseed int64
	spare pairRands

	// factors, when non-nil, holds a per-peer RTT inflation multiplier
	// (>= 1); a path's factor is the max of its endpoints'. nil means no
	// degradation anywhere and costs the hot path one pointer check.
	factors []float64
}

// NewModel builds a model over the given peer positions. side is the plane
// side length used for distance normalisation (pass the PlacementConfig.Side
// that produced pts). jitterSeed fixes the per-pair jitter stream.
func NewModel(pts []Point, side float64, cfg LatencyConfig, jitterSeed int64) *Model {
	return &Model{
		cfg:   cfg,
		pts:   pts,
		diag:  side * math.Sqrt2,
		jseed: jitterSeed,
	}
}

// N returns the number of peers in the model.
func (m *Model) N() int { return len(m.pts) }

// RTT returns the round-trip time in milliseconds between peers a and b.
// It is symmetric, zero on the diagonal, and always within
// [MinRTT, MaxRTT*(1+Jitter…)] for distinct peers.
func (m *Model) RTT(a, b int) float64 {
	if a == b {
		return 0
	}
	base := m.rttTo(m.pts[a], m.pts[b])
	if m.cfg.Jitter <= 0 {
		return m.degrade(a, b, base)
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	// Deterministic symmetric jitter: the first normal draw of a generator
	// seeded from the unordered pair identity.
	factor := 1 + float64(m.cfg.Jitter*pairNorm(m.jseed^(int64(lo)<<20|int64(hi)), &m.spare))
	if factor < 0.5 {
		factor = 0.5
	}
	rtt := base * factor
	if rtt < m.cfg.MinRTT {
		rtt = m.cfg.MinRTT
	}
	return m.degrade(a, b, rtt)
}

// degrade applies the regional-degradation factor to a path's healthy RTT
// on read, so clearing the factors restores the exact pre-degradation
// latencies.
func (m *Model) degrade(a, b int, rtt float64) float64 {
	if m.factors == nil {
		return rtt
	}
	f := m.factors[a]
	if m.factors[b] > f {
		f = m.factors[b]
	}
	if f > 1 {
		rtt *= f
	}
	return rtt
}

// SetLatencyFactor inflates every path touching peer i by factor (regional
// degradation). Factors below 1 are clamped to 1: the model degrades
// regions, it never accelerates them. Unlike the read methods, it must not
// race concurrent RTT calls; scenario dynamics invoke it between simulator
// events on the engine goroutine.
func (m *Model) SetLatencyFactor(i int, factor float64) {
	if i < 0 || i >= len(m.pts) {
		return
	}
	if factor < 1 {
		factor = 1
	}
	if m.factors == nil {
		m.factors = make([]float64, len(m.pts))
		for j := range m.factors {
			m.factors[j] = 1
		}
	}
	m.factors[i] = factor
}

// ClearLatencyFactors restores every path to its healthy latency.
func (m *Model) ClearLatencyFactors() { m.factors = nil }

// Degraded reports whether some latency factor is set, that is, whether
// RTT may differ from a pair's healthy value.
func (m *Model) Degraded() bool { return m.factors != nil }

// RTTToPoint returns the RTT in milliseconds between peer a and an arbitrary
// point (used for landmark probes). No jitter is applied: landmark probes in
// the paper are averaged RTT estimates, and locIds depend only on ordering.
func (m *Model) RTTToPoint(a int, p Point) float64 {
	return m.rttTo(m.pts[a], p)
}

func (m *Model) rttTo(p, q Point) float64 {
	d := p.Dist(q) / m.diag // 0..1
	return m.cfg.MinRTT + float64(d*(m.cfg.MaxRTT-m.cfg.MinRTT))
}

// OneWay returns the one-way link latency (half the RTT) in milliseconds;
// this is the delay the simulator applies to a single message hop.
func (m *Model) OneWay(a, b int) float64 { return m.RTT(a, b) / 2 }

package workload

import (
	"math"
	"math/rand"
)

// Zipf draws popularity ranks with P(rank k) ∝ 1/(k+1)^s — the standard
// model for P2P file popularity that the paper adopts ("queries are
// generated according to Zipf distribution", §5.1; justified by the
// Gnutella trace studies it cites [11,15]).
//
// It wraps math/rand.Zipf with the conventional (s, v=1) parameterisation
// and a convenience for drawing FileIDs.
type Zipf struct {
	z *rand.Zipf
	n int
	s float64
}

// NewZipf returns a Zipf sampler over ranks 0..n-1 with exponent s. The
// Gnutella measurement literature reports exponents between 0.6 and 1.0;
// the harness default is 0.8. rand.Zipf requires s > 1, so the common
// s ≤ 1 range is handled by a bounded rejection transform.
func NewZipf(n int, s float64, r *rand.Rand) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 0 {
		s = 0.8
	}
	zp := &Zipf{n: n, s: s}
	if s > 1.001 {
		zp.z = rand.NewZipf(r, s, 1, uint64(n-1))
	}
	return zp
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(r *rand.Rand) int {
	if z.n == 1 {
		return 0
	}
	if z.z != nil {
		return int(z.z.Uint64())
	}
	// Inverse-CDF via the analytic approximation of the generalized
	// harmonic CDF for s in (0,1]; exact enough for workload generation and
	// far cheaper than a table for n=3000. We invert
	//   F(k) ≈ (k^(1-s) - 1) / (n^(1-s) - 1)   for s < 1
	//   F(k) ≈ ln(k) / ln(n)                   for s = 1
	u := r.Float64()
	oneMinus := 1 - z.s
	var k float64
	if oneMinus > 1e-9 {
		nPow := math.Pow(float64(z.n), oneMinus)
		k = math.Pow(float64(u*(nPow-1))+1, 1/oneMinus)
	} else {
		k = math.Pow(float64(z.n), u)
	}
	rank := int(k) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// floatDigest folds values' IEEE-754 bits into one FNV-1a-style word.
type floatDigest struct {
	h uint64
	n int
}

func (d *floatDigest) add(x float64) {
	if d.n == 0 {
		d.h = 14695981039346656037
	}
	d.h = (d.h ^ math.Float64bits(x)) * 1099511628211
	d.n++
}

// simStreams yields the generators a run draws from: the named stream of
// trials 0–3 under roots 1–5, as RunTrialComparison derives them.
func simStreams(name string, f func(r *rand.Rand)) {
	for root := int64(1); root <= 5; root++ {
		for trial := range 4 {
			f(NewRNG(TrialSeed(root, trial)).Stream(name))
		}
	}
}

// TestStdlibFloatBits pins, as bits, what the standard-library float
// functions the simulator calls return for the arguments and seeds it
// feeds them. Their results may differ by GOARCH: math.Log and math.Exp are
// assembly on some architectures and Go on others (amd64's math.Exp also
// takes a fused-multiply-add path when the CPU has FMA), and Go code may be
// compiled with fused multiply-adds on arm64. Every golden depends on them,
// so a new architecture that computes any of them differently fails here,
// naming the function, before it fails a golden. The digests were recorded
// on linux/amd64 with FMA.
//
//   - rand.ExpFloat64: every query arrival gap (workload.Generator.Next),
//     from the "workload" stream; the tail calls math.Log, the wedge
//     math.Exp.
//   - rand.NormFloat64: peer placement (netmodel.Place, "topology" stream)
//     and per-pair RTT jitter; the tail calls math.Log, the wedge math.Exp.
//   - math.Pow: workload.Zipf.Draw for s ≤ 1, over catalogues of 2 to
//     100 000 files and s from 0.1 to 1.
//   - rand.Zipf: workload.Zipf.Draw for s > 1 (the flash crowds' 1.2 and
//     1.4 over a few hot files, and a whole catalogue).
func TestStdlibFloatBits(t *testing.T) {
	const draws = 5000
	sizes := []float64{2, 5, 8, 60, 200, 1000, 3000, 9000, 100000}
	cases := []struct {
		name    string
		run     func(d *floatDigest) (tail int)
		minTail int // draws that must reach the ziggurat's math.Log tail
		want    uint64
	}{
		{"rand.ExpFloat64", func(d *floatDigest) (tail int) {
			simStreams("workload", func(r *rand.Rand) {
				for range draws {
					x := r.ExpFloat64()
					d.add(x)
					if x > 7.69711747013104972 { // the ziggurat's tail: math.Log
						tail++
					}
				}
			})
			return tail
		}, 20, 0xed67852992c5ac37},
		{"rand.NormFloat64", func(d *floatDigest) (tail int) {
			simStreams("topology", func(r *rand.Rand) {
				for range draws {
					x := r.NormFloat64()
					d.add(x)
					if math.Abs(x) > 3.442619855899 { // the ziggurat's tail: math.Log
						tail++
					}
				}
			})
			return tail
		}, 20, 0xe4aa07efea8fba21},
		{"math.Pow", func(d *floatDigest) (tail int) {
			r := NewRNG(1).Stream("workload")
			for _, n := range sizes {
				for _, s := range []float64{0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999} {
					oneMinus := 1 - s
					nPow := math.Pow(n, oneMinus)
					d.add(nPow)
					for range 200 {
						u := r.Float64()
						d.add(math.Pow(float64(u*(nPow-1))+1, 1/oneMinus))
						d.add(math.Pow(n, u))
					}
				}
			}
			return 0
		}, 0, 0xeaa7e503d8202f67},
		{"rand.Zipf", func(d *floatDigest) (tail int) {
			for _, s := range []float64{1.2, 1.4, 2} {
				for _, n := range sizes {
					simStreams("workload", func(r *rand.Rand) {
						z := rand.NewZipf(r, s, 1, uint64(n-1))
						for range 200 {
							d.add(float64(z.Uint64()))
						}
					})
				}
			}
			return 0
		}, 0, 0xcbe587fc622088a5},
	}
	// GOARCH=386 computes math.Pow differently, yet every root golden is
	// byte-identical there: no figure reaches the bits that differ.
	on386 := map[string]uint64{"math.Pow": 0x140b39bed7eb5b86}
	for _, c := range cases {
		var d floatDigest
		tail := c.run(&d)
		if w, ok := on386[c.name]; ok && runtime.GOARCH == "386" {
			c.want = w
		}
		if d.h != c.want {
			t.Errorf("%s: the bits of %d results digest to %#x, want %#x: this GOARCH computes %s differently, and the goldens will move",
				c.name, d.n, d.h, c.want, c.name)
		}
		if tail < c.minTail {
			t.Errorf("%s: only %d draws reached the tail; the pin does not cover math.Log", c.name, tail)
		}
	}
}

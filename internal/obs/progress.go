package obs

import (
	"math"
	"sync"
	"time"
)

// RateEWMA derives a smoothed per-second rate from samples of a
// monotonically increasing count (cells completed). The instantaneous
// rate between consecutive samples is blended with half-life decay, so
// the ETA a progress line prints tracks recent throughput rather than
// the lifetime average. The zero value is ready to use.
type RateEWMA struct {
	mu        sync.Mutex
	primed    bool
	lastCount float64
	lastT     time.Time
	rate      float64
}

// rateHalfLife is the age at which a rate sample's weight has halved.
const rateHalfLife = 30 * time.Second

// Observe feeds the current cumulative count at time now.
func (r *RateEWMA) Observe(count float64, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.primed {
		r.primed = true
		r.lastCount, r.lastT = count, now
		return
	}
	dt := now.Sub(r.lastT).Seconds()
	if dt <= 0 {
		return
	}
	inst := (count - r.lastCount) / dt
	alpha := 1 - math.Exp(-dt*math.Ln2/rateHalfLife.Seconds())
	r.rate += alpha * (inst - r.rate)
	r.lastCount, r.lastT = count, now
}

// Rate returns the smoothed per-second rate (0 until two observations).
func (r *RateEWMA) Rate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rate
}

// ETA estimates time to finish remaining items at the current rate. ok
// is false while the rate is effectively zero.
func (r *RateEWMA) ETA(remaining float64) (time.Duration, bool) {
	rate := r.Rate()
	if rate <= 1e-9 || remaining < 0 {
		return 0, false
	}
	return time.Duration(remaining / rate * float64(time.Second)), true
}

package sim

import "math/rand"

// RNG wraps math/rand with named substreams so each subsystem (topology,
// workload, protocol tie-breaking, churn) draws from an independent,
// reproducible sequence. Splitting streams prevents a change in one
// subsystem's consumption pattern from perturbing every other subsystem —
// essential when comparing protocols under an identical workload.
type RNG struct {
	seed int64
}

// NewRNG returns a splitter rooted at seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Stream derives an independent *rand.Rand for the named subsystem. The same
// (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(r.seed ^ hashName(name)))
}

// TrialSeed derives the root seed of replicated trial number trial
// (0-based) from an experiment's root seed. Trial 0 returns root unchanged,
// so a single-trial experiment is bit-for-bit identical to a plain
// sequential run rooted at the same seed; later trials push the pair
// through a SplitMix64 finalizer so neighbouring trial indexes land in
// decorrelated regions of the seed space while every (root, trial) pair
// stays reproducible.
func TrialSeed(root int64, trial int) int64 {
	if trial == 0 {
		return root
	}
	z := uint64(root) + uint64(trial)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return int64(z)
}

// hashName is FNV-1a folded to int64; good enough to decorrelate stream
// names without importing hash/fnv in the hot path.
func hashName(s string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return int64(h)
}

package sim

import "testing"

func TestStreamsIndependentAndReproducible(t *testing.T) {
	r := NewRNG(7)
	a1 := r.Stream("topology").Int63()
	a2 := NewRNG(7).Stream("topology").Int63()
	if a1 != a2 {
		t.Fatal("same (seed, name) stream not reproducible")
	}
	if r.Stream("topology").Int63() == r.Stream("workload").Int63() {
		t.Fatal("named streams coincide")
	}
}

func TestTrialSeedZeroTrialIsIdentity(t *testing.T) {
	for _, root := range []int64{0, 1, -5, 1 << 40} {
		if got := TrialSeed(root, 0); got != root {
			t.Fatalf("TrialSeed(%d, 0) = %d, want identity", root, got)
		}
	}
}

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for trial := 0; trial < 1000; trial++ {
		s := TrialSeed(42, trial)
		if s2 := TrialSeed(42, trial); s2 != s {
			t.Fatalf("trial %d seed not deterministic: %d vs %d", trial, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d collide on seed %d", prev, trial, s)
		}
		seen[s] = trial
	}
}

func TestTrialSeedVariesWithRoot(t *testing.T) {
	if TrialSeed(1, 3) == TrialSeed(2, 3) {
		t.Fatal("different roots give identical trial seeds")
	}
}

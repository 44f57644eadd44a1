package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
)

// benchmarkDigest is benchmark/measure.go's digestRun, copied: the benchmark
// is its own module, which this one cannot import, so the copy is what pins
// that RunResult.Digest hashes the line sim_digest hashes.
func benchmarkDigest(r *RunResult) string {
	c := r.Collector
	sum := sha256.Sum256(fmt.Appendf(nil, "%s events=%d duration=%d submitted=%d messages=%d success=%v msgs=%v rtt=%v sameloc=%v cachehit=%v hops=%v control=%d/%d fwd=%+v cache=%d/%d err=%v\n",
		r.Protocol, r.Events, r.Duration, c.Submitted(), c.TotalMessages(),
		c.SuccessRate(), c.AvgMessagesPerQuery(), c.AvgDownloadRTT(),
		c.SameLocalityRate(), c.CacheHitRate(), c.AvgHops(),
		r.ControlMessages, r.ControlBits, r.Forwarding,
		r.CacheFilenames, r.CacheProviderEntries, r.Err))
	return hex.EncodeToString(sum[:])
}

// TestRunDigestsPinned pins the digest of four fixed-seed runs at the
// scales the duplicate-suppression set takes each of its forms: every
// golden runs at 1 000 peers or fewer, where the set is the bitmap from the
// start, while at 20 000 peers Locaware's queries live in tables and
// Flooding's grow theirs into the bitmap. The digests were recorded while
// the set was an N-bit bitmap in every world, so they also hold that the
// set changes no duplicate.
func TestRunDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		b                protocol.Behavior
		peers            int
		warmup, measured int
		digest           string
	}{
		{protocol.Locaware{}, 20000, 500, 2000, "93fc42754575bfff8de17fd02723962fd7fec0a6864112ff8ddfc4ca3add3bda"},
		{protocol.Flooding{}, 20000, 0, 10, "29d3bd7d3ab3a1ae49f0644dea42ac90d06e789721b37662f280c75a6c6d1041"},
		{protocol.Locaware{}, 2000, 500, 2000, "2aead91ce360d059476af02527dc0817bee97d2c387c34342b421fb05e2273f2"},
		{protocol.Flooding{}, 2000, 0, 25, "6e0656d37d6e6fc93a87ac33f6805eebd8fac04a3a669ae9f8ab3ff0aa93de9d"},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.NumPeers = c.peers
		res := NewSimulation(cfg, c.b).RunMeasured(c.warmup, c.measured)
		got := res.Digest()
		if want := benchmarkDigest(res); got != want {
			t.Errorf("%s at %d peers: Digest %s, the benchmark's sim_digest %s", c.b.Name(), c.peers, got, want)
		}
		if got != c.digest {
			t.Errorf("%s at %d peers, %d+%d queries: digest %s, want %s", c.b.Name(), c.peers, c.warmup, c.measured, got, c.digest)
		}
	}
}

// TestAblationsCompose is relation 24(e): a row is its mechanisms and
// nothing else, so the Locaware row with Bloom routing, multi-provider
// indexes, learning and locId selection off, relabelled "Dicas", runs the
// Dicas row's digest, static and under steady-churn.
func TestAblationsCompose(t *testing.T) {
	bare := protocol.Locaware{}.Spec()
	bare.Label, bare.Bloom, bare.MultiProvider, bare.Learn, bare.LocSelect = "Dicas", false, false, false, false
	churn, _ := scenario.Lookup("steady-churn")
	for seed := int64(1); seed <= 6; seed++ {
		for _, scen := range []*scenario.Spec{nil, churn} {
			cfg := DefaultConfig()
			cfg.Seed, cfg.NumPeers, cfg.Scenario = seed, 300, scen
			want := NewSimulation(cfg, protocol.Dicas{}).RunMeasured(200, 600).Digest()
			if got := NewSimulation(cfg, bare).RunMeasured(200, 600).Digest(); got != want {
				t.Errorf("seed %d, scenario %v: the bare Locaware row's digest %s, Dicas' %s", seed, scen != nil, got, want)
			}
		}
	}
}

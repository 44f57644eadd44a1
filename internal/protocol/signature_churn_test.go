package protocol_test

import (
	"testing"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
)

// TestSignaturesStayExactUnderChurn runs every baseline under steady-churn
// with files injected, withdrawn and migrated at phase entries, on a small
// response index (8 filenames, two-minute TTL) so capacity eviction and
// full expiry both happen, and checks at the end of the run that every
// peer's storage and index signatures and neighbour-filter fold equal their
// recomputation, and that the gid column holds the gid stream's draws.
func TestSignaturesStayExactUnderChurn(t *testing.T) {
	steady, _ := scenario.Lookup("steady-churn")
	churn := steady.Phases[0].Churn
	spec := &scenario.Spec{Name: "churning-content", Phases: []scenario.PhaseSpec{
		{Name: "steady", Fraction: 1, Churn: churn},
		{Name: "release", Fraction: 1, Churn: churn,
			Events: []scenario.EventSpec{{Kind: scenario.KindInjectFiles, Files: 40, Copies: 2, Hot: true}}},
		{Name: "withdraw", Fraction: 1, Churn: churn,
			Events: []scenario.EventSpec{{Kind: scenario.KindRemoveFiles, Files: 40}}},
		{Name: "migrate", Fraction: 1, Churn: churn,
			Events: []scenario.EventSpec{{Kind: scenario.KindMigrateProviders, Files: 30}}},
	}}
	for _, b := range protocol.Baselines() {
		cfg := core.DefaultConfig()
		cfg.Seed = 3
		cfg.NumPeers = 300
		cfg.Gen.RatePerPeer = 0.01
		cfg.Protocol.Cache.MaxFilenames = 8
		cfg.Protocol.Cache.TTL = 2 * sim.Minute
		cfg.Scenario = spec
		s := core.NewSimulation(cfg, b)
		s.RunMeasured(200, 800)
		if p := s.Network.StaleSignature(); p >= 0 {
			t.Fatalf("%s: peer %d's signatures differ from their recomputation", b.Name(), p)
		}
		gids := sim.NewRNG(cfg.Seed).Stream("gid")
		for p, g := range s.Network.Gids() {
			if want := gids.Intn(cfg.Protocol.GroupCount); int(g) != want {
				t.Fatalf("%s: peer %d's gid is %d, the gid stream drew %d", b.Name(), p, g, want)
			}
		}
		full := 0
		for _, n := range s.Network.Nodes() {
			if n.RI.Len() == cfg.Protocol.Cache.MaxFilenames {
				full++
			}
		}
		if b.Name() != "Flooding" && full == 0 {
			t.Fatalf("%s: no response index filled up; the run evicts nothing", b.Name())
		}
	}
}

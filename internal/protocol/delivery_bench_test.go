package protocol

import (
	"math/rand"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// BenchmarkDeliveryMiss is the protocol-receive layer at 20 000 peers: one
// query delivery to the next peer of a shuffled order of all of them, its
// TTL spent so that nothing is forwarded. "miss" asks for a keyword no peer
// stores or caches, so the peer's signature row ends the delivery unless
// its bits happen to cover the keyword's; "hit" asks for a keyword of the
// peer's first stored file, so the node, its storage and a response are
// touched. After each pass over the peers the visited set is reset and the
// answers are delivered, off the clock.
func BenchmarkDeliveryMiss(b *testing.B) {
	const peers = 20000
	net, _ := randomNet(b, Locaware{}, 1, peers)
	order := rand.New(rand.NewSource(7)).Perm(peers)
	absent := keywords.NewQuery(keywords.MaxPool - 1) // the fixture's pool is 300 keywords
	for _, c := range []struct {
		name string
		hit  bool
	}{{"miss", false}, {"hit", true}} {
		b.Run(c.name, func(b *testing.B) {
			qs, sigs := make([]keywords.Query, peers), make([]uint64, peers)
			for i, p := range order {
				qs[i] = absent
				if c.hit {
					qs[i] = keywords.NewQuery(net.nodes[p].files[0].KeywordAt(0))
				}
				sigs[i] = querySig(qs[i])
			}
			pq := net.acquirePending(1, 0, absent)
			msg := &QueryMsg{ID: 1, pq: pq, Path: []overlay.PeerID{0, 0}}
			hits := net.counts.StorageHits
			b.ResetTimer()
			for i := range b.N {
				j := i % peers
				if j == 0 && i > 0 {
					b.StopTimer()
					net.Engine.RunUntil(net.Engine.Now()+10*sim.Second, 0)
					pq.seen, pq.seenN = net.resetSeen(pq.seen)
					b.StartTimer()
				}
				p := overlay.PeerID(order[j])
				pq.q, pq.sig = qs[j], sigs[j]
				msg.Path[1] = p
				net.receiveQuery(p, msg)
			}
			b.StopTimer()
			if got := net.counts.StorageHits - hits; c.hit != (got > 0) {
				b.Fatalf("%s: %d storage hits over %d deliveries", c.name, got, b.N)
			}
		})
	}
}

// BenchmarkLocawareForward is the forwarding half of a delivery at 20 000
// peers whose response indexes hold up to two filenames each, announced to
// their neighbours by one gossip round: Locaware.Forward at the next peer of
// a shuffled order, over all its neighbours, for a keyword of a random
// file. "screened" takes the peers where the query's fold has a bit outside
// the peer's nbFold, so the hop goes to the Gid tier without reading the
// node or its copies; "probed" the peers where it has none, so the copies
// are probed.
func BenchmarkLocawareForward(b *testing.B) {
	const peers = 20000
	net, files := randomNet(b, Locaware{}, 1, peers)
	r := rand.New(rand.NewSource(7))
	for _, n := range net.nodes {
		for range r.Intn(3) {
			n.RI.Put(files[r.Intn(len(files))], overlay.PeerID(r.Intn(peers)), 0, 0)
		}
	}
	net.gossipBlooms()
	net.Engine.RunUntil(10*sim.Second, 0)
	for _, c := range []struct {
		name     string
		screened bool
	}{{"screened", true}, {"probed", false}} {
		b.Run(c.name, func(b *testing.B) {
			var ps []overlay.PeerID
			var pqs []*pendingQuery
			for _, i := range r.Perm(peers) {
				p := overlay.PeerID(i)
				q := keywords.NewQuery(files[r.Intn(len(files))].KeywordAt(0))
				kwIdx := net.nodes[p].bloomPositions(nil, q)
				pq := &pendingQuery{q: q, gid: int32(gidOfQuery(q, net.Config.GroupCount)), kwIdx: kwIdx, fold: bloom.FoldIndexes(kwIdx)}
				if (pq.fold&^net.sigs[p].nbFold != 0) == c.screened {
					ps, pqs = append(ps, p), append(pqs, pq)
				}
			}
			if len(ps) == 0 {
				b.Fatalf("%s: no peer of %d", c.name, peers)
			}
			msg := &QueryMsg{}
			b.ResetTimer()
			for i := range b.N {
				j := i % len(ps)
				msg.pq = pqs[j]
				Locaware{}.Forward(net, ps[j], msg, net.Graph.Neighbors(ps[j]))
			}
			b.ReportMetric(float64(len(ps))/peers, "share")
		})
	}
}

package protocol

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/trace"
)

// seenNet is a network of n peers as far as the duplicate-suppression set
// is concerned: the set reads only the peer count.
func seenNet(n int) *Network { return &Network{nodes: make([]*Node, n)} }

// seenPeers lists the peers pq's set holds, in peer order, asking the set
// itself: a copy of pq marks every peer once, and a peer is in the set iff
// its mark reports a duplicate.
func seenPeers(pq *pendingQuery) []overlay.PeerID {
	c := *pq
	c.seen = make([]uint32, len(pq.seen))
	copy(c.seen, pq.seen)
	var in []overlay.PeerID
	for p := range overlay.PeerID(len(pq.net.nodes)) {
		if c.markSeen(p) {
			in = append(in, p)
		}
	}
	return in
}

// seenForm is the length and count the set must have once distinct peers
// were marked in an n-peer world: a 256-slot table that
// doubles when half full, until the doubled table would be no smaller than
// the ⌈n/32⌉-word bitmap it then becomes (count -1), or the bitmap from the
// start where it is no larger than the first table.
func seenForm(n, distinct int) (length int, count int32) {
	words := (n + 31) / 32
	if words <= seenSlots {
		return words, -1
	}
	size := seenSlots
	for k := 1; k <= distinct; k++ {
		if 2*k >= size {
			if 2*size >= words {
				return words, -1
			}
			size *= 2
		}
	}
	return size, int32(distinct)
}

// TestSeenSetOracle drives the set with random marks beside a map, in
// worlds on both sides of the bitmap threshold (8 192 peers) and at the
// benchmark's and the scale probe's sizes, with sequences from one mark to
// N that run tables through growth and into the bitmap. One value is reset
// and reused throughout, so a bitmap-used set comes back as a table and a
// table-used one goes on to the bitmap. Every mark must report what the map
// reports, every set must hold exactly the map's peers, a reset set none,
// and each must have the form the growth rule gives.
func TestSeenSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 8192, 8193, 20000, 100000} {
		net := seenNet(n)
		pq := &pendingQuery{net: net}
		for _, marks := range []int{1, seenSlots/2 - 1, seenSlots / 2, seenSlots/2 + 1, seenSlots, 1000, 1, n / 4, seenSlots / 2, n, 1} {
			marks = max(1, min(marks, n))
			pq.seen, pq.seenN = net.resetSeen(pq.seen)
			if in := seenPeers(pq); len(in) != 0 {
				t.Fatalf("N=%d: a reset set holds %d peers, first %d", n, len(in), in[0])
			}
			want := map[overlay.PeerID]bool{}
			for i := range marks {
				p := overlay.PeerID(rng.Intn(n))
				if dup := pq.markSeen(p); dup != want[p] {
					t.Fatalf("N=%d, mark %d of %d: peer %d reported duplicate=%v, want %v", n, i+1, marks, p, dup, want[p])
				}
				want[p] = true
			}
			in := seenPeers(pq)
			for _, p := range in {
				if !want[p] {
					t.Fatalf("N=%d after %d marks: the set holds unmarked peer %d", n, marks, p)
				}
			}
			if len(in) != len(want) {
				t.Fatalf("N=%d after %d marks: the set holds %d peers, want %d", n, marks, len(in), len(want))
			}
			if l, c := seenForm(n, len(want)); len(pq.seen) != l || pq.seenN != c {
				t.Fatalf("N=%d after %d distinct peers: %d words counting %d, want %d counting %d", n, len(want), len(pq.seen), pq.seenN, l, c)
			}
		}
	}
}

// TestSeenSetWarmReuseAllocatesNothing: once a pooled value has grown its
// array and the network its rebuild scratch, a query that grows a table
// into the bitmap, and one that stays in the first table, reuse both.
func TestSeenSetWarmReuseAllocatesNothing(t *testing.T) {
	net := seenNet(20000)
	pq := &pendingQuery{net: net}
	rng := rand.New(rand.NewSource(1))
	long := make([]overlay.PeerID, 2000)
	for i := range long {
		long[i] = overlay.PeerID(rng.Intn(20000))
	}
	run := func() {
		for _, seq := range [][]overlay.PeerID{long, long[:50]} {
			pq.seen, pq.seenN = net.resetSeen(pq.seen)
			for _, p := range seq {
				pq.markSeen(p)
			}
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		t.Fatalf("a warm reuse allocates %.1f times", a)
	}
}

// TestPendingQueryStays144Bytes: the set is one slice header, and its count
// sits in the padding beside the bools and spans. Every in-flight query
// holds one pendingQuery, so a larger one shows in every workload's bytes
// per query. With 4-byte words (GOARCH=386) it is 108 bytes.
func TestPendingQueryStays144Bytes(t *testing.T) {
	want := map[uintptr]uintptr{8: 144, 4: 108}[unsafe.Sizeof(uintptr(0))]
	if got := unsafe.Sizeof(pendingQuery{}); got != want {
		t.Fatalf("pendingQuery is %d bytes, want %d", got, want)
	}
}

// TestDuplicateSuppressionIsByFirstArrival pins the rule markSeen states:
// the first copy of a query to reach a peer is the one it handles, whatever
// TTL a later copy carries. From origin 0, a three-hop path of short links
// reaches X (3) long before the two-hop detour through the far peer 4, so
// the copy X handles has TTL 0 and goes no further, and the detour's copy,
// still carrying TTL 1, is a duplicate there: the holder 5, behind X, is
// never asked, though without the short path the detour's copy reaches it.
// Equal link latencies (MinRTT = MaxRTT) cannot show this, since
// the first copy to arrive is then always a fewest-hop one, carrying the
// most TTL left; the fixture's latencies grow with distance.
func TestDuplicateSuppressionIsByFirstArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 3
	pts := []netmodel.Point{{X: 100, Y: 100}, {X: 150, Y: 100}, {X: 200, Y: 100}, {X: 250, Y: 100}, {X: 900, Y: 900}, {X: 300, Y: 100}}
	detour := [][2]int{{0, 4}, {4, 3}, {3, 5}}
	build := func(edges [][2]int) (*Network, *eventLog) {
		net := testNet(t, Flooding{}, pts, edges, cfg)
		net.Node(5).AddFile(fname("far"))
		buf := &eventLog{}
		net.SetTracer(buf)
		net.SubmitQuery(0, query("far"))
		runAll(net)
		return net, buf
	}
	if net, _ := build(detour); !net.Collector.Records()[0].Success {
		t.Fatal("fixture: the detour alone does not reach the holder")
	}

	net, buf := build(append([][2]int{{0, 1}, {1, 2}, {2, 3}}, detour...))
	var dups []trace.Event
	for _, e := range *buf {
		if e.Kind == trace.QueryForward && e.From == 3 || e.Peer == 5 {
			t.Fatalf("X passed the query on: %v", e)
		}
		if e.Kind == trace.QueryDuplicate {
			dups = append(dups, e)
		}
	}
	if len(dups) != 1 || dups[0].Peer != 3 || dups[0].From != 4 {
		t.Fatalf("duplicates = %v, want the detour's copy at X, from 4", dups)
	}
	if recs := net.Collector.Records(); len(recs) != 1 || recs[0].Success || recs[0].Messages != 5 {
		t.Fatalf("records = %+v, want one unanswered query of 5 messages", recs)
	}
}

package protocol

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// exactSigs recomputes n's signature row from scratch: keyword by keyword,
// every keyword of every stored file and of every cached filename, and bit
// by bit, every set position of every neighbour filter copy n holds.
func exactSigs(n *Node) peerSig {
	var s peerSig
	for _, f := range n.files {
		for i := range f.K() {
			s.storage |= keywordBit(f.KeywordAt(i))
		}
	}
	for f := range n.RI.Files() {
		for i := range f.K() {
			s.index |= keywordBit(f.KeywordAt(i))
		}
	}
	m := uint32(max(n.shared.filters.m, bloom.MinBits))
	for _, c := range n.neighborBF {
		for i := range m {
			if c.bf.TestIndexes([]uint32{i}) {
				s.nbFold |= 1 << (i % 64)
			}
		}
	}
	return s
}

// TestQuerySigIsSubsetOfFilenameSig: for random filenames of 1–3 keywords,
// ids drawn from the paper's pool and from just below MaxPool, every query
// ExtractQuery draws from a filename has a signature that is a bit-subset of
// the filename's — so no matching file or cached filename is ever screened
// out — and the filename's signature has one bit per keyword at most.
func TestQuerySigIsSubsetOfFilenameSig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var kws [keywords.MaxK]keywords.ID
		k := 1 + r.Intn(keywords.MaxK)
		for j := range k {
			if i%2 == 0 {
				kws[j] = keywords.ID(r.Intn(9000))
			} else {
				kws[j] = keywords.ID(keywords.MaxPool - 1 - r.Intn(64))
			}
		}
		f := keywords.NewFilename(kws[:k]...)
		fsig := fileSig(f)
		if n := bits.OnesCount64(fsig); n == 0 || n > f.K() {
			t.Fatalf("%v: signature %#x has %d bits for %d keywords", f, fsig, n, f.K())
		}
		for range 8 {
			q := keywords.ExtractQuery(f, r)
			if !f.Matches(q) {
				t.Fatalf("%v does not match its own query %v", f, q)
			}
			if qsig := querySig(q); qsig&^fsig != 0 {
				t.Fatalf("query %v of %v: signature %#x not within %#x", q, f, qsig, fsig)
			}
		}
	}
}

// TestLookupGuardMatchesIndex: behind the peer's index signature, lookupRI
// returns exactly what a plain RI.Lookup returns — no false negative,
// identical matches and provider lists — over randomized Put / TTL-expiry /
// single-filename lookup / capacity-eviction / PublishBloom sequences, and
// leaves the index in the same state (the twin node's index takes the
// plain lookup on the same stream). Beside them a second stream adds and
// removes stored files, and storageMatch behind the storage signature
// answers what a plain scan of the storage does. After every operation both
// signatures equal their recomputation from scratch: exact, not a superset,
// through eviction, expiry and removal.
func TestLookupGuardMatchesIndex(t *testing.T) {
	cfg := cache.Config{MaxFilenames: 6, MaxProvidersPerFile: 3, TTL: 40 * sim.Second}
	for seed := int64(1); seed <= 5; seed++ {
		r, rs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(-seed))
		var gnet Network
		gnet.nodes, gnet.sigs = newNodes(1, cfg, true, 1200, 8)
		guarded := &gnet.nodes[0]
		plainNodes, _ := newNodes(1, cfg, false, 0, 0)
		plain := &plainNodes[0]
		pick := func(r *rand.Rand, n int) []keywords.ID {
			out := make([]keywords.ID, n)
			for i := range out {
				out[i] = keywords.ID(r.Intn(12))
			}
			return out
		}
		var now sim.Time
		hits, guardedOut, evictions, expiries := 0, 0, 0, 0
		storageHits, storageOut, removals := 0, 0, 0
		for op := 0; op < 4000; op++ {
			now += sim.Time(r.Intn(5)) * sim.Second
			entries, k := plain.RI.TotalProviderEntries(), r.Intn(11)
			switch {
			case k < 4:
				f := keywords.NewFilename(pick(r, 3)...)
				p := overlay.PeerID(r.Intn(8))
				if plain.RI.Len() == cfg.MaxFilenames && !slices.Contains(plain.RI.Filenames(), f) {
					evictions++
				}
				guarded.RI.Put(f, p, 0, now)
				plain.RI.Put(f, p, 0, now)
			case k == 4:
				f := keywords.NewFilename(pick(r, 3)...)
				providers(guarded.RI, f, now)
				providers(plain.RI, f, now)
			case k == 10:
				guarded.PublishBloom(nil)
			default:
				q := keywords.NewQuery(pick(r, 1+r.Intn(2))...)
				qsig := querySig(q)
				got, want := gnet.lookupRI(0, q, qsig, now), plain.RI.Lookup(q, now)
				if len(got)+len(want) != 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: lookupRI(%v) = %v, RI.Lookup = %v", seed, op, q, got, want)
				}
				if qsig&^gnet.sigs[0].index != 0 {
					guardedOut++
				}
				if len(want) != 0 {
					hits++
				}
				f, ok := gnet.storageMatch(0, q, qsig)
				i := slices.IndexFunc(guarded.files, func(f keywords.Filename) bool { return f.Matches(q) })
				if ok != (i >= 0) || ok && f != guarded.files[i] {
					t.Fatalf("seed %d op %d: storageMatch(%v) = %v %v, storage %v", seed, op, q, f, ok, guarded.files)
				}
				if ok {
					storageHits++
				}
				if qsig&^gnet.sigs[0].storage != 0 {
					storageOut++
				}
			}
			switch s := rs.Intn(8); {
			case s == 0 && len(guarded.files) < 6:
				guarded.AddFile(keywords.NewFilename(pick(rs, 3)...))
			case s == 1 && len(guarded.files) > 0:
				if !guarded.RemoveFile(guarded.files[rs.Intn(len(guarded.files))]) {
					t.Fatalf("seed %d op %d: a stored file was not removed", seed, op)
				}
				removals++
			}
			if !reflect.DeepEqual(guarded.RI.Filenames(), plain.RI.Filenames()) ||
				guarded.RI.TotalProviderEntries() != plain.RI.TotalProviderEntries() {
				t.Fatalf("seed %d op %d: guarded and unguarded indexes diverged", seed, op)
			}
			for _, n := range []*Node{guarded, plain} {
				if got, want := *n.sig(), exactSigs(n); got != want {
					t.Fatalf("seed %d op %d: signatures %#x, recomputed %#x", seed, op, got, want)
				}
			}
			if k >= 4 && k < 10 && plain.RI.TotalProviderEntries() < entries {
				expiries++ // a read dropped stale entries
			}
		}
		if hits < 100 || guardedOut < 100 {
			t.Fatalf("seed %d: %d hits, %d guarded-out lookups; the stream does not exercise both sides", seed, hits, guardedOut)
		}
		if evictions == 0 || expiries == 0 {
			t.Fatalf("seed %d: %d evictions, %d expiring reads; want both", seed, evictions, expiries)
		}
		if storageHits < 20 || storageOut < 100 || removals < 100 {
			t.Fatalf("seed %d: %d storage hits, %d screened out, %d removals; want all three", seed, storageHits, storageOut, removals)
		}
		t.Logf("seed %d: %d index hits, %d screened out; %d storage hits, %d screened out", seed, hits, guardedOut, storageHits, storageOut)
	}
}

// StaleSignature returns the first peer whose signature row is not its own
// node's, or differs from its recomputation, and -1 when every row is exact.
func (net *Network) StaleSignature() overlay.PeerID {
	for i := range net.nodes {
		if n := &net.nodes[i]; n.sig() != &net.sigs[i] || net.sigs[i] != exactSigs(n) {
			return overlay.PeerID(i)
		}
	}
	return -1
}

// Gids returns the group id column, one entry per peer.
func (net *Network) Gids() []int32 { return net.gids }

// TestFoldScreenPassesEveryMatch: a node receives random announcements
// from up to eight neighbours, new links and replacements, many of which
// drop bits the replaced copy had; the filters hold 0–4 keywords of a
// 40-keyword pool, so the node's fold runs from sparse to full. After every
// install nbFold equals its recomputation, and for random queries the fold
// screen lets through every query one of the held copies passes: the screen
// skips the Bloom tier only where the tier would find nothing.
func TestFoldScreenPassesEveryMatch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	spell := func(id keywords.ID) string { return string(id.AppendSpelling(nil)) }
	screened, matched := 0, 0
	for trial := 0; trial < 200; trial++ {
		nodes, _ := newNodes(1, cache.DefaultConfig(), true, 1200, 6)
		n := &nodes[0]
		links := 1 + r.Intn(8)
		for op := 0; op < 30; op++ {
			f := n.shared.filters.carve()
			f.Reset()
			for range r.Intn(5) {
				f.Add(spell(keywords.ID(r.Intn(40))))
			}
			n.setNeighborBloom(overlay.PeerID(r.Intn(links)), f)
			if got, want := n.sig().nbFold, exactSigs(n).nbFold; got != want {
				t.Fatalf("trial %d op %d: nbFold %#x, recomputed %#x", trial, op, got, want)
			}
			for range 10 {
				ids := make([]keywords.ID, 1+r.Intn(keywords.MaxK))
				for i := range ids {
					ids[i] = keywords.ID(r.Intn(40))
				}
				kwIdx := n.bloomPositions(nil, keywords.NewQuery(ids...))
				passes := bloom.FoldIndexes(kwIdx)&^n.sig().nbFold == 0
				if !passes {
					screened++
				}
				for _, c := range n.neighborBF {
					if c.bf.TestIndexes(kwIdx) {
						matched++
						if !passes {
							t.Fatalf("trial %d op %d: the screen stops %v, which peer %d's copy matches", trial, op, ids, c.peer)
						}
						break
					}
				}
			}
		}
	}
	if screened < 1000 || matched < 1000 {
		t.Fatalf("%d queries screened out, %d matched a copy; the stream does not exercise both", screened, matched)
	}
	t.Logf("%d queries screened out, %d matched a copy", screened, matched)
}

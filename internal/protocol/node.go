package protocol

import (
	"slices"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/sim"
)

// Node is one peer's protocol state.
type Node struct {
	ID overlay.PeerID
	// Gid is the node's randomly chosen group id in [0, M) (§3.2).
	Gid int
	// Loc is the node's physical locality.
	Loc netmodel.LocID
	// files is the shared storage, in filename order. Peers that
	// download a file become providers (§3.1), so this grows during a run.
	files []keywords.Filename
	// RI is the response index (§3.2).
	RI *cache.Index

	// cbf is the local counting Bloom filter over keywords of cached
	// filenames; published is the snapshot most recently announced to
	// neighbours. Only maintained when the behaviour uses Bloom routing.
	cbf       *bloom.Counting
	published *bloom.Filter
	// deltaBuf is the reusable changed-position buffer of the announcement
	// delta, so PublishBloom allocates nothing in steady state.
	deltaBuf []uint32
	// announceBufs double-buffer the snapshot handed to in-flight install
	// events: round r announces one buffer while round r-1's buffer stays
	// frozen, so installs remain correct as long as deliveries land within
	// two gossip periods — a wide margin over the documented
	// period-exceeds-link-latency assumption, without cloning per round.
	// announceGens stamp each buffer's content generation; an install that
	// outlives its generation is dropped rather than applied (see
	// bloomInstallEvent).
	announceBufs [2]*bloom.Filter
	announceGens [2]uint64
	announceFlip int
	// neighborBF holds this node's copies of its neighbours' announced
	// filters (§4.2: "peer n stores its direct neighbors' Gid and BF"),
	// updated by gossip messages after link latency — so routing decisions
	// run on possibly stale local knowledge, exactly as deployed peers
	// would. One entry per peer that ever announced to this node, never
	// pruned: a re-linked neighbour's old copy is what routing sees until
	// its next announcement. Degrees are a handful, so the search is linear.
	neighborBF []neighborFilter
}

// neighborFilter is one neighbour's filter as this node last received it.
type neighborFilter struct {
	peer overlay.PeerID
	bf   *bloom.Filter
}

// bloomSync wires cache events into the node's counting filter, keeping
// BF_n consistent with RI_n as §4.2 requires ("whenever n overhears a
// response qrf such that f matches Gid_n, n caches qrf in RI_n, and then
// inserts each keyword of f as an element of BF_n"; discarded filenames
// remove their keywords).
type bloomSync struct{ n *Node }

func (b bloomSync) FilenameAdded(f keywords.Filename) {
	if b.n.cbf == nil {
		return
	}
	var buf [16]byte
	for i := range f.K() {
		b.n.cbf.Add(string(f.KeywordAt(i).AppendSpelling(buf[:0])))
	}
}

func (b bloomSync) FilenameEvicted(f keywords.Filename) {
	if b.n.cbf == nil {
		return
	}
	var buf [16]byte
	for i := range f.K() {
		b.n.cbf.Remove(string(f.KeywordAt(i).AppendSpelling(buf[:0])))
	}
}

// initNode initialises a node in place (nodes live in the network's flat
// state table); useBloom enables the Bloom filter machinery (Locaware
// variants only).
func initNode(n *Node, id overlay.PeerID, gid int, loc netmodel.LocID, cacheCfg cache.Config, useBloom bool, bloomBits, bloomK int) {
	n.ID = id
	n.Gid = gid
	n.Loc = loc
	n.files = make([]keywords.Filename, 0, 4) // the evaluation places 3 per peer
	n.RI = cache.New(cacheCfg, bloomSync{n})
	if useBloom {
		n.cbf = bloom.NewCounting(bloomBits, bloomK)
		n.published = bloom.New(bloomBits, bloomK)
	}
}

// NeighborBloom returns this node's copy of neighbour nb's announced
// filter, or nil when none has been received yet (new link, pre-gossip, or
// Bloom routing disabled).
func (n *Node) NeighborBloom(nb overlay.PeerID) *bloom.Filter {
	for i := range n.neighborBF {
		if n.neighborBF[i].peer == nb {
			return n.neighborBF[i].bf
		}
	}
	return nil
}

// setNeighborBloom installs a received announcement by copying it into
// this node's own per-neighbour filter (allocated once per link, reused
// for every later update). Copy-on-install means the sender's announced
// buffer is never retained across rounds, so gossip reuses one buffer per
// peer instead of cloning a snapshot per round — and a neighbour's view
// only ever changes when a gossip message actually arrives, exactly the
// stale-copy semantics of §4.2.
func (n *Node) setNeighborBloom(nb overlay.PeerID, f *bloom.Filter) {
	if dst := n.NeighborBloom(nb); dst != nil {
		_ = dst.CopyFrom(f) // cannot mismatch: one geometry per network
	} else {
		n.neighborBF = append(n.neighborBF, neighborFilter{nb, f.Clone()})
	}
}

// fileIndex returns where f sits in the sorted storage, or would be
// inserted, and whether it is there.
func (n *Node) fileIndex(f keywords.Filename) (int, bool) {
	return slices.BinarySearchFunc(n.files, f, keywords.Filename.Compare)
}

// AddFile inserts f into the node's shared storage.
func (n *Node) AddFile(f keywords.Filename) {
	if i, ok := n.fileIndex(f); ok {
		n.files[i] = f
	} else {
		n.files = slices.Insert(n.files, i, f)
	}
}

// RemoveFile withdraws filename f from the node's shared storage (content
// dynamics: providers deleting files mid-run). It reports whether the file
// was present. Response indexes elsewhere keep advertising the peer until
// their entries age out — exactly the staleness a real withdrawal causes.
func (n *Node) RemoveFile(f keywords.Filename) bool {
	i, ok := n.fileIndex(f)
	if ok {
		n.files = slices.Delete(n.files, i, i+1)
	}
	return ok
}

// storageMatch returns the filename in storage satisfying q, if any; of
// several, the one with the smallest name. With the small per-peer stores
// of the evaluation a linear scan is the right tool.
func (n *Node) storageMatch(q keywords.Query) (keywords.Filename, bool) {
	for _, f := range n.files {
		if f.Matches(q) {
			return f, true
		}
	}
	return keywords.Filename{}, false
}

// PublishBloom refreshes the node's published Bloom snapshot from its
// counting filter's live view and returns the delta against the previous
// snapshot (what the node would gossip to neighbours, footnote 1). A filter
// with no bit flipped since the last call costs one flag read. The returned
// delta aliases the node's scratch buffer and is valid until the next
// call; in steady state the whole refresh allocates nothing.
func (n *Node) PublishBloom() (bloom.Delta, error) {
	if n.cbf == nil || !n.cbf.Changed() {
		return bloom.Delta{}, nil
	}
	view := n.cbf.View()
	d, err := bloom.DiffFiltersInto(n.published, view, n.deltaBuf)
	if err != nil {
		return bloom.Delta{}, err
	}
	n.deltaBuf = d.Flipped[:0]
	if err := n.published.CopyFrom(view); err != nil {
		return bloom.Delta{}, err
	}
	n.cbf.ClearChanged()
	return d, nil
}

// bloomPositions appends the Bloom positions of q's keywords to dst — K per
// keyword, in the one filter geometry every peer of a network shares — and
// nothing when Bloom routing is disabled.
func (n *Node) bloomPositions(dst []uint32, q keywords.Query) []uint32 {
	if n.cbf == nil {
		return dst
	}
	var buf [16]byte
	for i := range q.K() {
		dst = n.cbf.View().AppendIndexes(dst, string(q.KeywordAt(i).AppendSpelling(buf[:0])))
	}
	return dst
}

// lookupRI is RI.Lookup behind the node's own filter: bloomSync keeps cbf
// an exact multiset of the RI's keywords, so a query keyword absent from it
// means no cached filename can match, and a Lookup that matches nothing has
// no side effect. kwIdx is q's Bloom positions (pendingQuery.kwIdx).
// Without a filter (Flooding, Dicas) it falls through.
func (n *Node) lookupRI(q keywords.Query, kwIdx []uint32, now sim.Time) []cache.Match {
	if n.cbf != nil && !n.cbf.TestIndexes(kwIdx) {
		return nil
	}
	return n.RI.Lookup(q, now)
}

// PublishedBloom returns the snapshot neighbours read, or nil when Bloom
// routing is disabled.
func (n *Node) PublishedBloom() *bloom.Filter { return n.published }

// announceSnapshot returns a frozen copy of the published filter to carry
// in this round's install events, plus its content generation. The two
// per-node buffers alternate between rounds (allocated lazily, reused
// forever), so a round's announcement stays intact while the next round's
// is being built and the gossip plane still allocates nothing in steady
// state.
func (n *Node) announceSnapshot() (*bloom.Filter, uint64) {
	i := n.announceFlip
	buf := n.announceBufs[i]
	if buf == nil {
		buf = bloom.New(n.published.M(), n.published.K())
		n.announceBufs[i] = buf
	}
	n.announceFlip = i ^ 1
	n.announceGens[i]++
	// Geometry matches by construction.
	_ = buf.CopyFrom(n.published)
	return buf, n.announceGens[i]
}

// announceGenOf returns the current content generation of one of this
// node's announce buffers (0 for an unknown filter).
func (n *Node) announceGenOf(f *bloom.Filter) uint64 {
	switch f {
	case n.announceBufs[0]:
		return n.announceGens[0]
	case n.announceBufs[1]:
		return n.announceGens[1]
	default:
		return 0
	}
}

// gidOfName maps a filename to its group id: hash(f) mod M (Eq. 1), with
// the FNV-1a hash of the canonical name computed once per filename.
func gidOfName(f keywords.Filename, m int) int {
	return int(f.Hash() % uint32(m))
}

// gidOfKeyword maps a single keyword to a group id (Dicas-Keys): the hash
// of its spelling, the canonical name of a one-keyword query.
func gidOfKeyword(kw keywords.ID, m int) int {
	return gidOfQuery(keywords.NewQuery(kw), m)
}

// gidOfQuery treats the query's canonical keyword string as if it were the
// filename — the only Gid a requester can compute without knowing the full
// filename. This is exactly the mismatch that "misleads keyword queries"
// in Dicas (§5.2): it equals gidOfName(f) only when the query contains all
// of f's keywords.
func gidOfQuery(q keywords.Query, m int) int {
	return int(q.Hash() % uint32(m))
}

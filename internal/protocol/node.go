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

// Node is one peer's protocol state. Its group id is not here: routing
// reads every candidate's, so it lives in the network's dense gids column.
type Node struct {
	ID overlay.PeerID
	// dirty is raised by any change to RI: BF_n over the keywords of RI's
	// filenames (§4.2) has changed, and PublishBloom rebuilds it from RI (in
	// place of §4.2's counting filter). Between publishes nothing reads it,
	// so a node keeps no filter of its own; it shares the 4-byte ID's word.
	dirty bool
	// Loc is the node's physical locality.
	Loc netmodel.LocID
	// files is the shared storage, in filename order. Peers that
	// download a file become providers (§3.1), so this grows during a run.
	files []keywords.Filename
	// RI is the response index (§3.2).
	RI *cache.Index
	// shared is what the network's nodes share: the signature column, whose
	// row ID (sig) the node keeps exact as its storage, RI and neighbour
	// filters change, the block its filter copies are carved from, and the
	// filter its publish rebuilds into.
	shared *nodeTables
	// announced is what the node last announced, nil before its first
	// announcement; install events carry their own copies of it. Both are
	// carved from shared.filters.
	announced *bloom.Filter
	// neighborBF holds this node's copies of its neighbours' announced
	// filters (§4.2: "peer n stores its direct neighbors' Gid and BF"),
	// updated by gossip messages after link latency — so routing decisions
	// run on possibly stale local knowledge, exactly as deployed peers
	// would. One entry per peer that ever announced to this node, never
	// pruned: a re-linked neighbour's old copy is what routing sees until
	// its next announcement. Degrees are a handful, so the search is linear.
	// The table is carved on the first install, at the node's degree then.
	neighborBF []neighborFilter
}

// nodeTables is what the nodes of one network share. scratch is the one
// filter every PublishBloom rebuilds into and the geometry bloomPositions
// hashes in; nil means no Bloom routing.
type nodeTables struct {
	sigs    []peerSig
	filters filterBlock
	scratch *bloom.Filter
}

// sig returns the node's row of the signature column.
func (n *Node) sig() *peerSig { return &n.shared.sigs[n.ID] }

// filterBlock carves Bloom filters of one geometry from tables of 64, for
// nodes' first announcements and the copies install events carry.
type filterBlock struct {
	m, k int
	free []bloom.Filter
}

func (b *filterBlock) carve() *bloom.Filter {
	if len(b.free) == 0 {
		b.free = bloom.NewTable(64, b.m, b.k)
	}
	f := &b.free[0]
	b.free = b.free[1:]
	return f
}

// neighborFilter is one neighbour's filter as this node last received it.
type neighborFilter struct {
	peer overlay.PeerID
	bf   *bloom.Filter
}

// peerSig is one peer's row of the signature column: a 64-bit keyword
// signature of its storage and one of its response index, and the fold of
// the neighbour filters it holds. A keyword sets one bit (keywordBit); a
// set bit means some stored file, or some cached filename, may hold a
// keyword on it, and a clear one that none does. So a query with a bit its
// peer's signature lacks cannot match there, and the delivery reads nothing
// else of the peer. nbFold is the OR of every held copy's Fold: a query
// whose positions' fold (pendingQuery.fold) has a bit outside it matches
// none of them, and the hop skips the Bloom tier without reading the node.
// The column is dense, 24 B a peer, where the state it screens is spread
// over the node, its storage window, its index's windows and its copies.
type peerSig struct{ storage, index, nbFold uint64 }

// keywordBit is keyword id's bit: the top six bits of its Fibonacci hash.
func keywordBit(id keywords.ID) uint64 { return 1 << (uint64(id) * 0x9E3779B97F4A7C15 >> 58) }

// fileSig and querySig OR the bits of a filename's or a query's keywords.
func fileSig(f keywords.Filename) (sig uint64) {
	for i := range f.K() {
		sig |= keywordBit(f.KeywordAt(i))
	}
	return sig
}

func querySig(q keywords.Query) (sig uint64) {
	for i := range q.K() {
		sig |= keywordBit(q.KeywordAt(i))
	}
	return sig
}

// bloomSync wires cache events into the node's dirty mark, since §4.2 has
// BF_n take each keyword of a cached filename ("n caches qrf in RI_n, and
// then inserts each keyword of f as an element of BF_n") and the node's
// next publish rebuilds it, and into its index signature: an added filename
// ORs its bits in, and a discarded one, already gone from RI when this
// fires, has the signature recomputed from the ≤ MaxFilenames filenames
// left.
type bloomSync struct{ n *Node }

func (b bloomSync) FilenameAdded(f keywords.Filename) {
	b.n.dirty = true
	b.n.sig().index |= fileSig(f)
}

func (b bloomSync) FilenameEvicted(keywords.Filename) {
	b.n.dirty = true
	sig := b.n.sig()
	sig.index = 0
	for f := range b.n.RI.Files() {
		sig.index |= fileSig(f)
	}
}

const storageWindow = 4 // a node's first storage capacity: the evaluation places 3 files per peer

// newNodes builds count nodes table by table, one allocation per table: the
// nodes, their signature column, their response indexes and their storage
// windows (capped, so a node that outgrows one reallocates alone); when
// useBloom (Locaware variants only), one scratch filter serves them all.
// The caller sets Loc.
func newNodes(count int, cacheCfg cache.Config, useBloom bool, bloomBits, bloomK int) ([]Node, []peerSig) {
	nodes := make([]Node, count)
	shared := &nodeTables{sigs: make([]peerSig, count), filters: filterBlock{m: bloomBits, k: bloomK}}
	if useBloom {
		shared.scratch = bloom.New(bloomBits, bloomK)
	}
	ris := cache.NewTable(count, cacheCfg, func(i int) cache.Events { return bloomSync{&nodes[i]} })
	files := make([]keywords.Filename, count*storageWindow)
	for i := range nodes {
		n := &nodes[i]
		n.ID = overlay.PeerID(i)
		n.files = files[i*storageWindow : i*storageWindow : (i+1)*storageWindow]
		n.RI, n.shared = &ris[i], shared
	}
	return nodes, shared.sigs
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

// setNeighborBloom installs f, a received announcement the caller hands
// over, as this node's copy of neighbour nb's filter, and returns the copy
// it replaces (nil on a new link) for the caller to reuse. A neighbour's
// view only ever changes when a gossip message actually arrives, exactly
// the stale-copy semantics of §4.2. The node's nbFold takes f's bits; only
// when the replaced copy had a bit f lacks is it refolded from every copy.
func (n *Node) setNeighborBloom(nb overlay.PeerID, f *bloom.Filter) *bloom.Filter {
	sig, fold := n.sig(), f.Fold()
	for i := range n.neighborBF {
		if n.neighborBF[i].peer == nb {
			old := n.neighborBF[i].bf
			n.neighborBF[i].bf = f
			if old.Fold()&^fold == 0 {
				sig.nbFold |= fold
				return old
			}
			sig.nbFold = 0
			for _, c := range n.neighborBF {
				sig.nbFold |= c.bf.Fold()
			}
			return old
		}
	}
	n.neighborBF = append(n.neighborBF, neighborFilter{nb, f})
	sig.nbFold |= fold
	return nil
}

// fileIndex returns where f sits in the sorted storage, or would be
// inserted, and whether it is there.
func (n *Node) fileIndex(f keywords.Filename) (int, bool) {
	return slices.BinarySearchFunc(n.files, f, keywords.Filename.Compare)
}

// AddFile inserts f into the node's shared storage.
func (n *Node) AddFile(f keywords.Filename) {
	if i, ok := n.fileIndex(f); !ok {
		n.files = slices.Insert(n.files, i, f)
	}
	n.sig().storage |= fileSig(f)
}

// RemoveFile withdraws filename f from the node's shared storage (content
// dynamics: providers deleting files mid-run). It reports whether the file
// was present. Response indexes elsewhere keep advertising the peer until
// their entries age out — exactly the staleness a real withdrawal causes.
func (n *Node) RemoveFile(f keywords.Filename) bool {
	i, ok := n.fileIndex(f)
	if ok {
		n.files = slices.Delete(n.files, i, i+1)
		sig := n.sig()
		sig.storage = 0
		for _, g := range n.files {
			sig.storage |= fileSig(g)
		}
	}
	return ok
}

// storageMatch returns the filename in peer p's storage satisfying q, whose
// signature is qsig, if any; of several, the one with the smallest name. A
// query bit missing from p's storage signature ends it before p's node is
// read; past that, with the small per-peer stores of the evaluation, a
// linear scan is the right tool.
func (net *Network) storageMatch(p overlay.PeerID, q keywords.Query, qsig uint64) (keywords.Filename, bool) {
	if qsig&^net.sigs[p].storage != 0 {
		return keywords.Filename{}, false
	}
	for _, f := range net.nodes[p].files {
		if f.Matches(q) {
			return f, true
		}
	}
	return keywords.Filename{}, false
}

// PublishBloom does nothing unless RI changed since the last call. Then it
// rebuilds BF_n from RI's filenames into the network's scratch filter,
// diffs it against announced (empty before the first announcement, carved
// on first use) and, if a bit flipped, copies it into announced. It
// returns the delta (footnote 1), empty when there is nothing to send, with
// its positions accumulated into buf (truncated, capacity reused; nil
// allocates): one scratch serves every node of a network.
func (n *Node) PublishBloom(buf []uint32) bloom.Delta {
	view := n.shared.scratch
	if view == nil || !n.dirty {
		return bloom.Delta{}
	}
	n.dirty = false
	view.Reset()
	var spelling [16]byte
	for f := range n.RI.Files() {
		for i := range f.K() {
			view.Add(string(f.KeywordAt(i).AppendSpelling(spelling[:0])))
		}
	}
	if n.announced == nil {
		if view.PopCount() == 0 {
			return bloom.Delta{}
		}
		n.announced = n.shared.filters.carve()
	}
	d, _ := bloom.DiffFiltersInto(n.announced, view, buf) // one geometry per node
	if !d.Empty() {
		_ = n.announced.CopyFrom(view)
	}
	return d
}

// bloomPositions appends the Bloom positions of q's keywords to dst — K per
// keyword, in the one filter geometry every peer of a network shares — and
// nothing when Bloom routing is disabled.
func (n *Node) bloomPositions(dst []uint32, q keywords.Query) []uint32 {
	bf := n.shared.scratch
	if bf == nil {
		return dst
	}
	var buf [16]byte
	for i := range q.K() {
		dst = bf.AppendIndexes(dst, string(q.KeywordAt(i).AppendSpelling(buf[:0])))
	}
	return dst
}

// lookupRI is peer p's RI.Lookup behind its index signature, into the
// network's match and provider scratch, valid until the next lookup. qsig
// is q's signature: a bit of it missing from p's index signature means no
// cached filename holds that keyword, and the lookup ends before p's node
// or index is read. A lookup that matches nothing has no side effect
// (AppendMatches expires only matching entries), so the guard changes no
// outcome, in every protocol.
func (net *Network) lookupRI(p overlay.PeerID, q keywords.Query, qsig uint64, now sim.Time) []cache.Match {
	if qsig&^net.sigs[p].index != 0 {
		return nil
	}
	ms, ps := net.nodes[p].RI.AppendMatches(net.matchBuf[:0], net.riBuf[:0], q, now)
	net.matchBuf, net.riBuf = ms, ps
	return ms
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

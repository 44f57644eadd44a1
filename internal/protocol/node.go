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

	// bf is BF_n over the keywords of RI's filenames (§4.2), nil without
	// Bloom routing. A cached filename's keywords go in at once; a
	// discarded one raises dirty, and until PublishBloom rebuilds bf from
	// RI (in place of §4.2's counting filter) bf is a superset, never less.
	bf    *bloom.Filter
	dirty bool
	// announced is what the node last announced, nil before its first
	// announcement; install events carry their own copies of it. Both are
	// carved from filters, which the network's nodes share.
	announced *bloom.Filter
	filters   *filterBlock
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

// bloomSync wires cache events into the node's filter as §4.2 requires
// ("whenever n overhears a response qrf such that f matches Gid_n, n caches
// qrf in RI_n, and then inserts each keyword of f as an element of BF_n").
type bloomSync struct{ n *Node }

func (b bloomSync) FilenameAdded(f keywords.Filename) {
	if b.n.bf != nil {
		b.n.addKeywords(f)
	}
	b.n.dirty = true
}

func (b bloomSync) FilenameEvicted(keywords.Filename) { b.n.dirty = true }

// addKeywords inserts each keyword of f into bf.
func (n *Node) addKeywords(f keywords.Filename) {
	var buf [16]byte
	for i := range f.K() {
		n.bf.Add(string(f.KeywordAt(i).AppendSpelling(buf[:0])))
	}
}

const storageWindow = 4 // a node's first storage capacity: the evaluation places 3 files per peer

// newNodes builds count nodes table by table, one allocation per table: the
// nodes and pointers to them, their response indexes, their storage windows
// (capped, so a node that outgrows one reallocates alone) and, when useBloom
// (Locaware variants only), their Bloom filters. The caller sets Gid and Loc.
func newNodes(count int, cacheCfg cache.Config, useBloom bool, bloomBits, bloomK int) []*Node {
	nodes, ptrs := make([]Node, count), make([]*Node, count)
	ris := cache.NewTable(count, cacheCfg, func(i int) cache.Events { return bloomSync{&nodes[i]} })
	var bfs []bloom.Filter
	var filters *filterBlock
	if useBloom {
		bfs, filters = bloom.NewTable(count, bloomBits, bloomK), &filterBlock{m: bloomBits, k: bloomK}
	}
	files := make([]keywords.Filename, count*storageWindow)
	for i := range nodes {
		n := &nodes[i]
		n.ID = overlay.PeerID(i)
		n.files = files[i*storageWindow : i*storageWindow : (i+1)*storageWindow]
		n.RI = &ris[i]
		if useBloom {
			n.bf, n.filters = &bfs[i], filters
		}
		ptrs[i] = n
	}
	return ptrs
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
// the stale-copy semantics of §4.2.
func (n *Node) setNeighborBloom(nb overlay.PeerID, f *bloom.Filter) *bloom.Filter {
	for i := range n.neighborBF {
		if n.neighborBF[i].peer == nb {
			old := n.neighborBF[i].bf
			n.neighborBF[i].bf = f
			return old
		}
	}
	n.neighborBF = append(n.neighborBF, neighborFilter{nb, f})
	return nil
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

// PublishBloom does nothing unless RI changed since the last call. Then it
// rebuilds the filter from RI's filenames, diffs it against announced
// (empty before the first announcement, carved on first use) and, if a
// bit flipped, copies it into announced. It returns the delta (footnote 1),
// empty when there is nothing to send, with its positions accumulated into
// buf (truncated, capacity reused; nil allocates): one scratch serves every
// node of a network.
func (n *Node) PublishBloom(buf []uint32) bloom.Delta {
	if n.bf == nil || !n.dirty {
		return bloom.Delta{}
	}
	n.dirty = false
	view := n.bf
	view.Reset()
	for f := range n.RI.Files() {
		n.addKeywords(f)
	}
	if n.announced == nil {
		if view.PopCount() == 0 {
			return bloom.Delta{}
		}
		n.announced = n.filters.carve()
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
	if n.bf == nil {
		return dst
	}
	var buf [16]byte
	for i := range q.K() {
		dst = n.bf.AppendIndexes(dst, string(q.KeywordAt(i).AppendSpelling(buf[:0])))
	}
	return dst
}

// lookupRI is n's RI.Lookup behind its own filter, into the network's
// match and provider scratch, valid until the next lookup: bf holds every
// keyword of every cached filename, so a query keyword absent from it means
// no cached filename can match. A stale bf (a superset) lets more queries
// through, but a lookup that matches nothing has no side effect. kwIdx is
// q's Bloom positions (pendingQuery.kwIdx). Without a filter (Flooding,
// Dicas) it falls through.
func (net *Network) lookupRI(n *Node, q keywords.Query, kwIdx []uint32, now sim.Time) []cache.Match {
	if n.bf != nil && !n.bf.TestIndexes(kwIdx) {
		return nil
	}
	ms, ps := n.RI.AppendMatches(net.matchBuf[:0], net.riBuf[:0], q, now)
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

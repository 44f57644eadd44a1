// Package workload generates the Locaware evaluation workload (§5.1): a
// catalogue of 3000 files whose names are 3 keywords from a 9000-keyword
// pool, an initial placement of 3 files per peer, Zipf-distributed query
// popularity, and Poisson query arrivals at 0.00083 queries per second per
// peer, each query expressed with 1–3 keywords of the target filename.
//
// The catalogue is mutable mid-run: scenario content dynamics inject new
// releases and the generator re-ranks popularity.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"github.com/p2prepro/locaware/internal/keywords"
)

// FileID indexes a file in the catalogue. The catalogue is ordered by
// popularity rank: FileID 0 is the most queried file.
type FileID int

// Catalog is the universe of shared files. It is not safe for concurrent
// use, but a catalogue and its copies (Clone) may be used concurrently.
type Catalog struct {
	pool  keywords.Pool
	files []keywords.Filename
	// byName indexes filenames back to ids, so Add refuses a duplicate: an
	// open-addressed table of id+1 (0 is empty), probed linearly from the
	// filename's stored hash and kept at most half full.
	byName []int32
	// byKeyword is the inverted index MatchingFiles keeps, keyword id ->
	// ascending ids of the files whose names contain it, over the first
	// indexed files (none until its first call; no simulation makes one).
	byKeyword [][]FileID
	indexed   int
	// kwPerFile is the filename width used for generated files (paper: 3).
	kwPerFile int
}

// CatalogConfig sizes the catalogue.
type CatalogConfig struct {
	NumFiles        int // paper: 3000
	KeywordPool     int // paper: 9000
	KeywordsPerFile int // paper: 3
}

// DefaultCatalog matches §5.1.
func DefaultCatalog() CatalogConfig {
	return CatalogConfig{NumFiles: 3000, KeywordPool: 9000, KeywordsPerFile: 3}
}

// nameSpace returns how many distinct filenames of k keywords a pool of n
// keywords holds: C(n, k), with k clamped to n as Pool.RandomFilename clamps
// it; within Validate's bounds, at most C(MaxPool, MaxK) ≈ 1.7e14. The
// product is taken in uint64 and saturates at math.MaxInt, which a 32-bit
// int reaches at the paper's C(9000, 3).
func nameSpace(n, k int) int {
	c := uint64(1)
	for i := range min(k, n) {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return int(min(c, math.MaxInt))
}

// Validate reports whether the catalogue can exist: its keywords spell at
// one width, its filenames fit a Filename, and the pool holds NumFiles
// distinct filenames. Every entry point that takes a configuration from
// outside the program checks it, so NewCatalog never searches for a
// filename that does not exist.
func (cfg CatalogConfig) Validate() error {
	if cfg.KeywordPool > keywords.MaxPool {
		return fmt.Errorf("workload: KeywordPool %d exceeds %d, the largest pool whose keywords spell at one width",
			cfg.KeywordPool, keywords.MaxPool)
	}
	if cfg.KeywordsPerFile > keywords.MaxK {
		return fmt.Errorf("workload: KeywordsPerFile %d exceeds %d, the most keywords a filename holds",
			cfg.KeywordsPerFile, keywords.MaxK)
	}
	if names := nameSpace(cfg.KeywordPool, cfg.KeywordsPerFile); names < cfg.NumFiles {
		return fmt.Errorf("workload: KeywordPool %d holds only %d distinct %d-keyword filenames, fewer than Files %d",
			cfg.KeywordPool, names, cfg.KeywordsPerFile, cfg.NumFiles)
	}
	return nil
}

// NewCatalog generates a catalogue; filenames are drawn with r and
// guaranteed unique. It panics on a configuration Validate rejects.
func NewCatalog(cfg CatalogConfig, r *rand.Rand) *Catalog {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Catalog{
		pool:      *keywords.NewPool(cfg.KeywordPool),
		files:     make([]keywords.Filename, 0, cfg.NumFiles),
		kwPerFile: cfg.KeywordsPerFile,
	}
	c.reindex(cfg.NumFiles)
	for len(c.files) < cfg.NumFiles {
		c.Add(c.pool.RandomFilename(cfg.KeywordsPerFile, r))
	}
	return c
}

// Size returns the number of files.
func (c *Catalog) Size() int { return len(c.files) }

// File returns the filename of id.
func (c *Catalog) File(id FileID) keywords.Filename { return c.files[id] }

// Add inserts a new file, whose keywords must be the pool's, into the
// catalogue and returns its id. A duplicate filename returns the existing
// id with ok false. Content dynamics use it to inject files mid-run.
func (c *Catalog) Add(f keywords.Filename) (FileID, bool) {
	if 2*(len(c.files)+1) > len(c.byName) {
		c.reindex(len(c.files) + 1)
	}
	i := c.slot(f)
	if id := c.byName[i]; id != 0 {
		return FileID(id - 1), false
	}
	c.byName[i] = int32(len(c.files) + 1)
	c.files = append(c.files, f)
	return FileID(len(c.files) - 1), true
}

// slot returns the index of f's slot in byName: the one holding f, or the
// empty one where f goes.
func (c *Catalog) slot(f keywords.Filename) int {
	mask := len(c.byName) - 1
	for i := int(f.Hash()) & mask; ; i = (i + 1) & mask {
		if id := c.byName[i]; id == 0 || c.files[id-1] == f {
			return i
		}
	}
}

// reindex rebuilds byName over the files with room for n: a power of two
// above 2n slots.
func (c *Catalog) reindex(n int) {
	c.byName = make([]int32, 1<<bits.Len(uint(2*n)))
	for id, f := range c.files {
		c.byName[c.slot(f)] = int32(id + 1)
	}
}

// Clone returns an independent copy in O(1). Files are only appended, so
// the copy shares them, clipped so that neither side's appends reach the
// other; it builds its own indexes on its first Add and MatchingFiles.
func (c *Catalog) Clone() *Catalog {
	return &Catalog{pool: c.pool, files: slices.Clip(c.files), kwPerFile: c.kwPerFile}
}

// NewFiles draws n fresh unique filenames from the keyword pool with r and
// adds them to the catalogue, returning their ids in insertion order — the
// injection primitive behind scenario content dynamics. It returns fewer
// than n ids when the pool has no unused filenames left.
func (c *Catalog) NewFiles(n int, r *rand.Rand) []FileID {
	room := nameSpace(c.pool.Size(), c.kwPerFile) - c.Size()
	ids := make([]FileID, 0, n)
	for len(ids) < min(n, room) {
		if id, ok := c.Add(c.pool.RandomFilename(c.kwPerFile, r)); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// MatchingFiles returns the ids of all files whose names satisfy q, in
// ascending id order: ground-truth query satisfiability. It first indexes
// the files added since its last call (files are only ever appended, so
// posting lists stay ascending), then probes the inverted index with q's
// rarest keyword and verifies only that posting list, so cost scales with
// the keyword's selectivity, not the catalogue size.
func (c *Catalog) MatchingFiles(q keywords.Query) []FileID {
	if c.byKeyword == nil {
		c.byKeyword = make([][]FileID, c.pool.Size())
	}
	for ; c.indexed < len(c.files); c.indexed++ {
		for f, i := c.files[c.indexed], 0; i < f.K(); i++ {
			c.byKeyword[f.KeywordAt(i)] = append(c.byKeyword[f.KeywordAt(i)], FileID(c.indexed))
		}
	}
	// Shortest posting list bounds the candidate set; a keyword outside
	// the pool means no file can satisfy the query.
	var candidates []FileID
	for i := range q.K() {
		kw := q.KeywordAt(i)
		if int(kw) >= len(c.byKeyword) {
			return nil
		}
		if post := c.byKeyword[kw]; i == 0 || len(post) < len(candidates) {
			candidates = post
		}
	}
	var out []FileID
	for _, id := range candidates {
		if c.files[id].Matches(q) {
			out = append(out, id)
		}
	}
	return out
}

// Pool exposes the keyword pool behind the catalogue.
func (c *Catalog) Pool() *keywords.Pool { return &c.pool }

// Package workload generates the Locaware evaluation workload (§5.1): a
// catalogue of 3000 files whose names are 3 keywords from a 9000-keyword
// pool, an initial placement of 3 files per peer, Zipf-distributed query
// popularity, and Poisson query arrivals at 0.00083 queries per second per
// peer, each query expressed with 1–3 keywords of the target filename.
//
// The catalogue is mutable mid-run: scenario content dynamics inject new
// releases and the generator re-ranks popularity, so satisfiability lookups
// go through an inverted keyword index instead of a linear scan.
package workload

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"github.com/p2prepro/locaware/internal/keywords"
)

// FileID indexes a file in the catalogue. The catalogue is ordered by
// popularity rank: FileID 0 is the most queried file.
type FileID int

// Catalog is the universe of shared files.
type Catalog struct {
	pool  *keywords.Pool
	files []keywords.Filename
	// byName maps canonical filename strings back to ids, so Add refuses
	// a duplicate.
	byName map[string]FileID
	// byKeyword is the inverted index: keyword -> ascending ids of the
	// files whose names contain it. Ground-truth satisfiability
	// (MatchingFiles) intersects posting lists instead of scanning the
	// whole catalogue, which keeps it cheap when scenarios inject files
	// mid-run and re-check satisfiability per phase.
	byKeyword map[keywords.Keyword][]FileID
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
// it, saturating at math.MaxInt.
func nameSpace(n, k int) int {
	c := new(big.Int).Binomial(int64(n), int64(min(k, n)))
	if !c.IsInt64() || c.Int64() > math.MaxInt {
		return math.MaxInt
	}
	return int(c.Int64())
}

// Validate reports whether the catalogue can exist: its NumFiles filenames
// must be distinct, and the keyword pool holds only so many. Every entry
// point that takes a configuration from outside the program checks it, so
// NewCatalog never searches for a filename that does not exist.
func (cfg CatalogConfig) Validate() error {
	if names := nameSpace(cfg.KeywordPool, cfg.KeywordsPerFile); names < cfg.NumFiles {
		return fmt.Errorf("workload: KeywordPool %d holds only %d distinct %d-keyword filenames, fewer than Files %d",
			cfg.KeywordPool, names, cfg.KeywordsPerFile, cfg.NumFiles)
	}
	return nil
}

// NewCatalog generates a catalogue; filenames are drawn with r and
// guaranteed unique. It panics on a configuration Validate rejects.
func NewCatalog(cfg CatalogConfig, r *rand.Rand) *Catalog {
	if cfg.NumFiles <= 0 {
		cfg = DefaultCatalog()
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	pool := keywords.NewPool(cfg.KeywordPool)
	c := &Catalog{
		pool:      pool,
		files:     make([]keywords.Filename, 0, cfg.NumFiles),
		byName:    make(map[string]FileID, cfg.NumFiles),
		byKeyword: make(map[keywords.Keyword][]FileID, cfg.KeywordPool),
		kwPerFile: cfg.KeywordsPerFile,
	}
	for len(c.files) < cfg.NumFiles {
		c.Add(pool.RandomFilename(cfg.KeywordsPerFile, r))
	}
	return c
}

// Size returns the number of files.
func (c *Catalog) Size() int { return len(c.files) }

// File returns the filename of id.
func (c *Catalog) File(id FileID) keywords.Filename { return c.files[id] }

// Add inserts a new file into the catalogue, indexing its keywords, and
// returns its id. A duplicate filename returns the existing id with ok
// false. Content dynamics use it to inject files mid-run.
func (c *Catalog) Add(f keywords.Filename) (FileID, bool) {
	name := f.String()
	if id, dup := c.byName[name]; dup {
		return id, false
	}
	id := FileID(len(c.files))
	c.byName[name] = id
	c.files = append(c.files, f)
	// Files are only ever appended, so posting lists stay ascending and
	// MatchingFiles returns ids in the same order a full scan would.
	for i := 0; i < f.K(); i++ {
		kw := f.KeywordAt(i)
		c.byKeyword[kw] = append(c.byKeyword[kw], id)
	}
	return id, true
}

// NewFiles draws n fresh unique filenames from the keyword pool with r and
// adds them to the catalogue, returning their ids in insertion order — the
// injection primitive behind scenario content dynamics. It returns fewer
// than n ids when the pool has no unused filenames left.
func (c *Catalog) NewFiles(n int, r *rand.Rand) []FileID {
	k := c.kwPerFile
	if k <= 0 {
		k = DefaultCatalog().KeywordsPerFile
	}
	room := nameSpace(c.pool.Size(), k) - c.Size()
	ids := make([]FileID, 0, n)
	for len(ids) < min(n, room) {
		if id, ok := c.Add(c.pool.RandomFilename(k, r)); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// MatchingFiles returns the ids of all files whose names satisfy q, in
// ascending id order. The evaluation uses it to decide ground-truth query
// satisfiability. It probes the inverted index with q's rarest keyword and
// verifies only that posting list, so cost scales with the keyword's
// selectivity, not the catalogue size.
func (c *Catalog) MatchingFiles(q keywords.Query) []FileID {
	if len(q.Kws) == 0 {
		return nil
	}
	// Shortest posting list bounds the candidate set; a keyword absent
	// from the index means no file can satisfy the query.
	var candidates []FileID
	for i, kw := range q.Kws {
		post, ok := c.byKeyword[kw]
		if !ok {
			return nil
		}
		if i == 0 || len(post) < len(candidates) {
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
func (c *Catalog) Pool() *keywords.Pool { return c.pool }

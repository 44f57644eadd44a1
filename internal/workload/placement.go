package workload

import (
	"math/rand"
	"slices"
)

// Placement records which peers initially share which files ("each peer
// initially shares 3 files, randomly chosen from a pool of 3000", §5.1).
type Placement struct {
	// shared holds each peer's files in turn, per of them apiece.
	shared []FileID
	per    int
}

// NewPlacement assigns per random distinct files to each of n peers; per
// must not exceed the catalogue size. A peer's draws are deduplicated by
// scanning the few drawn so far.
func NewPlacement(n, per int, cat *Catalog, r *rand.Rand) *Placement {
	p := &Placement{shared: make([]FileID, 0, n*per), per: per}
	for i := 0; i < n; i++ {
		files := p.shared[len(p.shared):len(p.shared)]
		for len(files) < per {
			if id := FileID(r.Intn(cat.Size())); !slices.Contains(files, id) {
				files = append(files, id)
			}
		}
		p.shared = p.shared[:len(p.shared)+per]
	}
	return p
}

// Files returns a copy of the initial file set of peer p.
func (pl *Placement) Files(p int) []FileID {
	return slices.Clone(pl.shared[p*pl.per : (p+1)*pl.per])
}

// Providers returns, for each file, the peers that initially share it.
func (pl *Placement) Providers() map[FileID][]int {
	m := make(map[FileID][]int)
	for i, f := range pl.shared {
		m[f] = append(m[f], i/pl.per)
	}
	return m
}

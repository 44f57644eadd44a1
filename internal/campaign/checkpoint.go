package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/p2prepro/locaware/internal/sweep"
)

// checkpointVersion is the on-disk format version; files with any other
// version are skipped (and re-run) rather than guessed at. Load decodes
// leniently, so any change to the JSON shape of sweep.CellResult must bump
// it (TestCheckpointShapeGolden holds the two together). Version 2: the
// cell summary carries the whole-run metrics.PhaseStats.
const checkpointVersion = 2

// checkpointFile is the JSON document a Store writes per finished cell.
type checkpointFile struct {
	Version  int              `json:"version"`
	SpecHash string           `json:"spec_hash"`
	Cell     sweep.CellResult `json:"cell"`
}

// Store is a content-addressed checkpoint directory: one JSON file per
// finished grid cell, bound to one campaign by its content hash. Writes
// go through a temp file and an atomic rename, so a crash mid-write
// leaves either the previous file or none — never a torn one. Load is
// forgiving by design: a corrupted, truncated or foreign file is
// reported and skipped, which simply re-runs that cell, because every
// cell is recomputable from the plan alone.
type Store struct {
	dir  string
	hash string
}

// OpenStore opens (creating if needed) a checkpoint directory bound to
// the campaign with the given content hash.
func OpenStore(dir, specHash string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: checkpoint store needs a directory")
	}
	if specHash == "" {
		return nil, fmt.Errorf("campaign: checkpoint store needs a campaign hash")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating checkpoint dir: %w", err)
	}
	return &Store{dir: dir, hash: specHash}, nil
}

// Path returns the checkpoint file path for a cell index.
func (s *Store) Path(cell int) string {
	return filepath.Join(s.dir, fmt.Sprintf("cell_%06d.json", cell))
}

// Put persists one finished cell: the document is written to a temp file
// in the same directory and renamed into place, so readers (and crashes)
// only ever observe complete files. An existing checkpoint for the cell
// is replaced.
func (s *Store) Put(cr *sweep.CellResult) error {
	if cr == nil {
		return fmt.Errorf("campaign: nil cell result")
	}
	data, err := json.Marshal(checkpointFile{Version: checkpointVersion, SpecHash: s.hash, Cell: *cr})
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint for cell %d: %w", cr.Index, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".cell_*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: creating checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("campaign: writing checkpoint for cell %d: %w", cr.Index, werr)
	}
	if err := os.Rename(tmp.Name(), s.Path(cr.Index)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: committing checkpoint for cell %d: %w", cr.Index, err)
	}
	return nil
}

// Load scans the directory and returns every readable cell checkpoint
// belonging to this campaign, keyed by cell index, plus one warning per
// file it had to skip: unparseable JSON (corrupted or truncated), an
// unknown format version, a foreign campaign hash, or an index that
// disagrees with the filename. Skipped cells are simply recomputed —
// Load never fails the campaign over a bad file.
func (s *Store) Load() (map[int]*sweep.CellResult, []string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reading checkpoint dir: %w", err)
	}
	cells := make(map[int]*sweep.CellResult)
	var warnings []string
	skip := func(name, reason string) {
		warnings = append(warnings, fmt.Sprintf("checkpoint %s: %s (cell will re-run)", name, reason))
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "cell_%d.json", &idx); err != nil {
			continue // temp files and unrelated content are not checkpoints
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		var fileIdx int
		fmt.Sscanf(name, "cell_%d.json", &fileIdx)
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			skip(name, fmt.Sprintf("unreadable: %v", err))
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var cf checkpointFile
		if err := dec.Decode(&cf); err != nil {
			skip(name, fmt.Sprintf("corrupted or truncated: %v", err))
			continue
		}
		if cf.Version != checkpointVersion {
			skip(name, fmt.Sprintf("format version %d, want %d", cf.Version, checkpointVersion))
			continue
		}
		if cf.SpecHash != s.hash {
			skip(name, fmt.Sprintf("belongs to campaign %s, this one is %s", shortHash(cf.SpecHash), shortHash(s.hash)))
			continue
		}
		if cf.Cell.Index != fileIdx {
			skip(name, fmt.Sprintf("carries cell index %d", cf.Cell.Index))
			continue
		}
		cr := cf.Cell
		cells[cr.Index] = &cr
	}
	return cells, warnings, nil
}

// shortHash abbreviates a content hash for human-facing messages.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "(none)"
	}
	return h
}

package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/p2prepro/locaware/internal/sweep"
)

// checkpointVersion is the on-disk format version; files with any other
// version are skipped (and re-run) rather than guessed at. Load decodes
// leniently, so any change to the JSON shape of sweep.CellResult must bump
// it (TestCheckpointShapeGolden holds the two together). Version 2: the
// cell summary carries the whole-run metrics.PhaseStats. Version 3: the
// file carries the SHA-256 of its cell's bytes. Version 4: the metric
// windows take the facade's names (Phase, AvgMessagesPerQuery,
// AvgDownloadRTTMs) and order.
const checkpointVersion = 4

// checkpointFile is the JSON document a Store writes per finished cell.
// CellSHA256 covers Cell's bytes as written: an edited digit is valid JSON.
type checkpointFile struct {
	Version    int             `json:"version"`
	SpecHash   string          `json:"spec_hash"`
	CellSHA256 string          `json:"cell_sha256"`
	Cell       json.RawMessage `json:"cell"`
}

// cellSum is the content hash checkpointFile.CellSHA256 holds.
func cellSum(cell []byte) string { return fmt.Sprintf("%x", sha256.Sum256(cell)) }

// encodeCheckpoint renders the checkpoint document for cr in the campaign
// with content hash specHash.
func encodeCheckpoint(specHash string, cr *sweep.CellResult) ([]byte, error) {
	cell, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointFile{Version: checkpointVersion, SpecHash: specHash, CellSHA256: cellSum(cell), Cell: cell})
}

// Store is a content-addressed checkpoint directory: one JSON file per
// finished grid cell, bound to one campaign by its content hash. Writes
// go through a synced temp file and an atomic rename, and the directory is
// synced after it, so a crash mid-write leaves either the previous file or
// none — never a torn one. Load is forgiving by design: a corrupted,
// truncated, edited or foreign file is reported and skipped, which simply re-runs that cell, because every
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
// in the same directory, synced and renamed into place, and the directory
// is synced, so readers (and crashes) only ever observe complete files. An
// existing checkpoint for the cell is replaced.
func (s *Store) Put(cr *sweep.CellResult) error {
	if cr == nil {
		return fmt.Errorf("campaign: nil cell result")
	}
	data, err := encodeCheckpoint(s.hash, cr)
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint for cell %d: %w", cr.Index, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".cell_*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: creating checkpoint temp file: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.Path(cr.Index))
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing checkpoint for cell %d: %w", cr.Index, err)
	}
	return nil
}

// syncDir flushes dir's entries, so a rename into it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load scans the directory and returns every readable cell checkpoint
// belonging to this campaign, keyed by cell index, plus one warning per
// file it had to skip (see read). Skipped cells are simply recomputed —
// Load never fails the campaign over a bad file.
func (s *Store) Load() (map[int]*sweep.CellResult, []string, error) {
	entries, err := os.ReadDir(s.dir) // sorted by name
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reading checkpoint dir: %w", err)
	}
	cells := make(map[int]*sweep.CellResult)
	var warnings []string
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "cell_%d.json", &idx); err != nil || e.IsDir() {
			continue // temp files and unrelated content are not checkpoints
		}
		if cr, reason := s.read(e.Name(), idx); cr != nil {
			cells[idx] = cr
		} else {
			warnings = append(warnings, fmt.Sprintf("checkpoint %s: %s (cell will re-run)", e.Name(), reason))
		}
	}
	return cells, warnings, nil
}

// read returns the cell checkpoint file name holds, or why it cannot be
// trusted: unreadable, unparseable JSON (corrupted or truncated), an
// unknown format version, a foreign campaign hash, cell bytes that do not
// match their recorded SHA-256 (edited), or a cell index other than idx,
// the one its name gives.
func (s *Store) read(name string, idx int) (*sweep.CellResult, string) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Sprintf("unreadable: %v", err)
	}
	var cf checkpointFile
	var cr sweep.CellResult
	switch err := json.Unmarshal(data, &cf); {
	case err != nil:
		return nil, fmt.Sprintf("corrupted or truncated: %v", err)
	case cf.Version != checkpointVersion:
		return nil, fmt.Sprintf("format version %d, want %d", cf.Version, checkpointVersion)
	case cf.SpecHash != s.hash:
		return nil, fmt.Sprintf("belongs to campaign %s, this one is %s", shortHash(cf.SpecHash), shortHash(s.hash))
	case cellSum(cf.Cell) != cf.CellSHA256:
		return nil, "cell content does not match its SHA-256"
	case json.Unmarshal(cf.Cell, &cr) != nil:
		return nil, "corrupted cell"
	case cr.Index != idx:
		return nil, fmt.Sprintf("carries cell index %d", cr.Index)
	}
	return &cr, ""
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

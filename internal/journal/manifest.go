package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ManifestName is the layout manifest's filename inside a data directory.
// Its 20+ character name can never collide with the 20-digit segment and
// snapshot names, so journal scans ignore it.
const ManifestName = "MANIFEST.json"

// Manifest records how a data directory is laid out across scheduler
// shards. The serve layer refuses to open a directory whose manifest
// disagrees with its -shards flag: per-shard journals are only exact when
// replayed by the same shard count that wrote them. Resharding rewrites
// the journals and the manifest together.
type Manifest struct {
	// Version numbers the manifest format itself.
	Version int `json:"version"`
	// Shards is the shard count the directory's journals were written
	// under. 1 means the journal lives at the directory root (the
	// pre-sharding layout); N > 1 means shard-NNNN subdirectories.
	Shards int `json:"shards"`
}

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// ShardDirName names shard s's journal subdirectory.
func ShardDirName(s int) string { return fmt.Sprintf("shard-%04d", s) }

// WriteManifest atomically writes dir's layout manifest (WriteFileAtomic,
// like snapshots: a crash never leaves a torn manifest).
func WriteManifest(dir string, m Manifest) error {
	if m.Shards < 1 {
		return fmt.Errorf("journal: manifest shard count %d", m.Shards)
	}
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(dir, ManifestName, ManifestName+".tmp", append(data, '\n'))
}

// ReadManifest reads dir's layout manifest. ok is false when none exists
// (a pre-manifest data directory or an empty one).
func ReadManifest(dir string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("journal: corrupt %s: %w", ManifestName, err)
	}
	if m.Shards < 1 {
		return Manifest{}, false, fmt.Errorf("journal: %s: shard count %d", ManifestName, m.Shards)
	}
	return m, true, nil
}

package snapstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"namecoherence/internal/cas"
)

// manifestName is the manifest file inside a Store's data directory.
const manifestName = "MANIFEST.json"

// manifestKeep is how many commits the history holds per shard: Commit
// rewrites and fsyncs all of it and only Latest reads it.
const manifestKeep = 64

// ManifestEntry records one committed snapshot: at revision Rev, shard
// Shard's naming graph was the subtree named by Root. The history holds each
// shard's newest manifestKeep; the last per shard is the recovery point.
type ManifestEntry struct {
	Shard int    `json:"shard"`
	Rev   uint64 `json:"rev"`
	Root  string `json:"root"`
}

// RootHash parses the entry's root hash.
func (e ManifestEntry) RootHash() (cas.Hash, error) {
	return cas.ParseHash(e.Root)
}

// manifest is the on-disk manifest document. JSON, not the canonical
// encoder: it is a tiny mutable index meant to be operator-inspectable,
// not a content-addressed context blob.
type manifest struct {
	Version int             `json:"version"`
	History []ManifestEntry `json:"history"`
}

// Commit appends (shard, rev, root) to the revision history and, for
// durable stores, rewrites the manifest through cas.Publish, the blobs'
// own durable write: a crash leaves either the old manifest or the new
// one, never a torn file. Committing the shard's current recovery point
// again is a no-op.
func (s *Store) Commit(shard int, rev uint64, root cas.Hash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if last, ok := s.latestLocked(shard); ok && last.Rev == rev && last.Root == root.String() {
		return nil
	}
	history := append(slices.Clone(s.man.History), ManifestEntry{Shard: shard, Rev: rev, Root: root.String()})
	for i, kept := len(history)-1, 0; i >= 0; i-- {
		if history[i].Shard != shard {
			continue
		}
		if kept++; kept > manifestKeep {
			history = slices.Delete(history, i, i+1)
		}
	}
	next := manifest{Version: 1, History: history}
	if s.dir != "" {
		data, err := json.MarshalIndent(next, "", "  ")
		if err != nil {
			return fmt.Errorf("encode manifest: %w", err)
		}
		if err := cas.Publish(filepath.Join(s.dir, manifestName), append(data, '\n'), nil); err != nil {
			return fmt.Errorf("manifest %w", err)
		}
	}
	s.man = next
	return nil
}

// Latest returns the shard's most recent committed snapshot.
func (s *Store) Latest(shard int) (ManifestEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestLocked(shard)
}

func (s *Store) latestLocked(shard int) (ManifestEntry, bool) {
	for i := len(s.man.History) - 1; i >= 0; i-- {
		if s.man.History[i].Shard == shard {
			return s.man.History[i], true
		}
	}
	return ManifestEntry{}, false
}

// readManifest loads dir's manifest; a missing file is an empty history.
func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{Version: 1}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("parse manifest: %w: %w", ErrBadSnapshot, err)
	}
	return m, nil
}

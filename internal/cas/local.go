package cas

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// tmpPrefix marks in-flight blob writes. A crash between the temp write
// and the rename leaves only a tmpPrefix file, which every reader ignores
// and SweepTemps removes — the published namespace never holds a partial
// blob.
const tmpPrefix = "tmp-"

// Local is a filesystem Backend: each blob lives at <dir>/<hh>/<hex>,
// fanned out by the first hash byte. Writes are write-then-rename with an
// fsync of both the blob and its directory before Put reports success, so
// a blob is durable the moment the caller sees nil.
type Local struct {
	dir string

	// PutHook, when non-nil, runs after the temp file is written and
	// synced but before it is renamed into place. It exists so crash
	// tests can kill a writer mid-publish: returning an error abandons
	// the Put exactly as a crash would, leaving only the temp file.
	// Set it before any Put is in flight; it is read without locking.
	PutHook func(h Hash, tmpPath string) error

	mu      sync.Mutex
	buckets map[string]bool // fan-out dirs known to exist and be synced
}

var _ Backend = (*Local)(nil)

// OpenLocal opens (creating if needed) a local blob directory.
func OpenLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("open blob dir: %w", err)
	}
	return &Local{dir: dir, buckets: make(map[string]bool)}, nil
}

// blobPath returns the final path for h and its fan-out directory.
func (l *Local) blobPath(h Hash) (bucket, path string) {
	hex := h.String()
	bucket = filepath.Join(l.dir, hex[:2])
	return bucket, filepath.Join(bucket, hex)
}

// ensureBucket creates and fsyncs the fan-out directory once, so the
// directory entry itself survives a crash.
func (l *Local) ensureBucket(bucket string) error {
	l.mu.Lock()
	known := l.buckets[bucket]
	l.mu.Unlock()
	if known {
		return nil
	}
	if err := os.MkdirAll(bucket, 0o777); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.mu.Lock()
	l.buckets[bucket] = true
	l.mu.Unlock()
	return nil
}

// Put durably stores data under h: temp file in the same directory, write,
// fsync, rename into place, fsync the directory. Present blobs are left
// untouched (immutable, same bytes by content addressing).
func (l *Local) Put(h Hash, data []byte) error {
	bucket, path := l.blobPath(h)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := l.ensureBucket(bucket); err != nil {
		return fmt.Errorf("blob bucket: %w", err)
	}
	f, err := os.CreateTemp(bucket, tmpPrefix)
	if err != nil {
		return fmt.Errorf("blob temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("blob write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("blob fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("blob close: %w", err)
	}
	if hook := l.PutHook; hook != nil {
		if err := hook(h, tmp); err != nil {
			// Simulated crash: abandon the publish, leave the temp file
			// exactly as a dead process would.
			return fmt.Errorf("blob put aborted: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("blob publish: %w", err)
	}
	if err := syncDir(bucket); err != nil {
		return fmt.Errorf("blob dir fsync: %w", err)
	}
	return nil
}

// Get returns the blob stored under h.
func (l *Local) Get(h Hash) ([]byte, error) {
	_, path := l.blobPath(h)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("blob read: %w", err)
	}
	return data, nil
}

// Has reports whether a blob is stored under h.
func (l *Local) Has(h Hash) (bool, error) {
	_, path := l.blobPath(h)
	if _, err := os.Stat(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("blob stat: %w", err)
	}
	return true, nil
}

// List calls fn for every published blob, ignoring temp files and foreign
// directory entries.
func (l *Local) List(fn func(Hash) error) error {
	buckets, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("list blob dir: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() || len(b.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(l.dir, b.Name()))
		if err != nil {
			return fmt.Errorf("list bucket %s: %w", b.Name(), err)
		}
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), tmpPrefix) {
				continue
			}
			h, err := ParseHash(e.Name())
			if err != nil {
				continue // foreign file; not ours to report
			}
			if err := fn(h); err != nil {
				return err
			}
		}
	}
	return nil
}

// SweepTemps removes temp files abandoned by crashed writers and returns
// how many were removed. Safe to run concurrently with readers: temp
// files are never part of the published namespace. It must not run
// concurrently with writers, which may have temp files legitimately in
// flight — call it at open time, before serving.
func (l *Local) SweepTemps() (int, error) {
	removed := 0
	buckets, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, fmt.Errorf("sweep blob dir: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(l.dir, b.Name()))
		if err != nil {
			return removed, fmt.Errorf("sweep bucket %s: %w", b.Name(), err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
				continue
			}
			if err := os.Remove(filepath.Join(l.dir, b.Name(), e.Name())); err != nil {
				return removed, fmt.Errorf("sweep temp: %w", err)
			}
			removed++
		}
	}
	return removed, nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

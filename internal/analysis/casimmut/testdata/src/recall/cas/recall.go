// Package cas holds the shapes casimmut guards, beside the forms the
// content-addressed store and its snapshot encoder use instead. CHANGES.md
// credits the analyzer with no caught bug, so these are the guarded
// shapes, not a past finding: a scratch buffer written again after Put
// kept it, and a file-writing Put that returns before (or writes after)
// its fsync, must keep firing; the fresh-buffer encoder and the
// temp-write-sync-rename Put must stay silent. (The directory is named cas
// so the package lands where the durability check runs.)
package cas

import "os"

// Hash stands in for the blob hash.
type Hash [32]byte

// Backend is the store's blob sink.
type Backend interface {
	Put(h Hash, data []byte) error
}

// Mem retains the slice it is handed, which is why a caller must not
// write into a blob after Put returns.
type Mem struct{ m map[Hash][]byte }

func (s *Mem) Put(h Hash, data []byte) error {
	s.m[h] = data
	return nil
}

// encodeReusing reuses one scratch buffer for two nodes: the second
// node's bytes land in the slice Mem still holds as the first node's blob.
func encodeReusing(s *Mem, first, second []byte) error {
	buf := make([]byte, len(first))
	copy(buf, first)
	if err := s.Put(Hash{1}, buf); err != nil {
		return err
	}
	copy(buf, second)    // want `copy into blob buf after Put returned`
	buf = append(buf, 0) // want `append to blob buf after Put returned`
	return s.Put(Hash{2}, buf)
}

// encodeFresh is the encoder's form: each blob gets a slice of its own.
func encodeFresh(s *Mem, first, second []byte) error {
	buf := make([]byte, len(first))
	copy(buf, first)
	if err := s.Put(Hash{1}, buf); err != nil {
		return err
	}
	buf = make([]byte, len(second)+1)
	copy(buf, second)
	return s.Put(Hash{2}, buf)
}

// unsyncedLocal renames a written temp file into place without an fsync:
// a crash after Put returned can leave a manifest naming an empty blob.
type unsyncedLocal struct{ dir string }

func (l *unsyncedLocal) Put(h Hash, data []byte) error {
	f, err := os.CreateTemp(l.dir, "put-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil { // want `file-writing Put must reach fsync before success: File.Write is not durable when Put returns nil`
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), l.dir+"/blob")
}

// trailerLocal syncs the blob, then appends a trailer the sync never saw.
type trailerLocal struct{ dir string }

func (l *trailerLocal) Put(h Hash, data []byte) error {
	f, err := os.CreateTemp(l.dir, "put-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if _, err := f.Write(h[:]); err != nil { // want `write after the final fsync in Put`
		return err
	}
	return f.Close()
}

// Local is the shipped form: temp file, write, fsync, close, rename.
type Local struct{ dir string }

func (l *Local) Put(h Hash, data []byte) error {
	f, err := os.CreateTemp(l.dir, "put-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), l.dir+"/blob")
}

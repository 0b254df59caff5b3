// Package cas exercises casimmut's durability check: a file-writing
// function of a cas package — a Put or any other — must fsync before
// reporting success. (The directory is named cas so the testdata package
// path lands in the analyzer's scope.)
package cas

import "os"

// Hash stands in for the real blob hash.
type Hash [32]byte

// mem retains the slice it is given — the reason callers must not write
// into a blob after Put returns. No file I/O, so no durability finding.
type mem struct{ m map[Hash][]byte }

func (s *mem) Put(h Hash, data []byte) error {
	s.m[h] = data
	return nil
}

// unsynced writes the blob with os.WriteFile, which never fsyncs: the
// blob can vanish in a crash after Put reported success.
type unsynced struct{ dir string }

func (b *unsynced) Put(h Hash, data []byte) error {
	return os.WriteFile(b.dir, data, 0o666) // want `file-writing Put must reach fsync before success`
}

// synced is the canonical durable shape: write, fsync, then succeed.
type synced struct{ dir string }

func (b *synced) Put(h Hash, data []byte) error {
	f, err := os.Create(b.dir)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// lateWrite fsyncs, then writes more: the tail bytes are not durable
// when Put returns nil.
type lateWrite struct{ dir string }

func (b *lateWrite) Put(h Hash, data []byte) error {
	f, err := os.Create(b.dir)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if _, err := f.WriteString("trailer"); err != nil { // want `write after the final fsync in Put`
		return err
	}
	return f.Close()
}

// Touch is not a Put, but it writes a file in a cas package: it is held
// to the same rule.
func (b *synced) Touch(data []byte) error {
	return os.WriteFile(b.dir, data, 0o666) // want `file-writing Touch must reach fsync before success: os\.WriteFile is not durable when Touch returns nil`
}

// publishUnsynced is a free temp-write-rename routine with the fsync
// left out: a Put (or a manifest commit) that calls it reports success
// for bytes the disk may not hold.
func publishUnsynced(path string, data []byte) error {
	f, err := os.CreateTemp("", "tmp-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil { // want `file-writing publishUnsynced must reach fsync before success: File\.Write is not durable when publishUnsynced returns nil`
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// publish is the same routine with the fsync in place: silent.
func publish(path string, data []byte) error {
	f, err := os.CreateTemp("", "tmp-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

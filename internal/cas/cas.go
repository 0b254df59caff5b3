package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// HashSize is the length of a blob hash in bytes.
const HashSize = sha256.Size

// Hash identifies a blob by the SHA-256 of its contents. The zero Hash
// identifies nothing.
type Hash [HashSize]byte

// Sum returns the hash of data.
func Sum(data []byte) Hash {
	return sha256.Sum256(data)
}

// String renders the hash in lowercase hex.
func (h Hash) String() string {
	return hex.EncodeToString(h[:])
}

// IsZero reports whether h is the zero hash (no blob).
func (h Hash) IsZero() bool {
	return h == Hash{}
}

// ParseHash parses a lowercase-hex hash as produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("parse hash %q: %w", s, err)
	}
	if len(b) != HashSize {
		return h, fmt.Errorf("parse hash %q: %d bytes, want %d", s, len(b), HashSize)
	}
	copy(h[:], b)
	return h, nil
}

// Errors returned by stores and backends.
var (
	// ErrNotFound is returned by Get for a hash the store does not hold.
	ErrNotFound = errors.New("blob not found")
	// ErrCorrupt is returned when a blob's bytes do not hash to its key.
	ErrCorrupt = errors.New("corrupt blob")
)

// Backend stores immutable blobs under their hash. Implementations must be
// safe for concurrent use. Put must be idempotent (putting a blob that
// already exists is a no-op) and durable: when Put returns nil the blob
// survives a crash of the process (for backends with any notion of
// durability — Mem's "durability" is the life of the process).
type Backend interface {
	// Put stores data under h. The caller promises h == Sum(data) and must
	// not modify data after Put returns (casimmut enforces both sides).
	Put(h Hash, data []byte) error
	// Get returns the blob stored under h, or ErrNotFound.
	Get(h Hash) ([]byte, error)
	// Has reports whether a blob is stored under h, without reading it.
	Has(h Hash) (bool, error)
	// List calls fn for every stored hash, stopping at the first error.
	List(fn func(Hash) error) error
}

// Stats counts a Store's traffic. Puts counts logical writes; Stored
// counts the ones that actually reached the backend — the rest were
// dedup'd by the existence check. PutBytes/StoredBytes are the same split
// in bytes, so StoredBytes/PutBytes is the inverse of the dedup ratio.
type Stats struct {
	Puts, Stored          int
	PutBytes, StoredBytes int64
}

// DedupRatio returns logical bytes over stored bytes: 1.0 means nothing
// was shared, 2.0 means every blob was written twice but stored once.
func (s Stats) DedupRatio() float64 {
	if s.StoredBytes == 0 {
		if s.PutBytes == 0 {
			return 1
		}
		return float64(s.PutBytes)
	}
	return float64(s.PutBytes) / float64(s.StoredBytes)
}

// Store is a hashing, verifying, dedup-accounting layer over a Backend.
type Store struct {
	backend Backend

	mu    sync.Mutex
	stats Stats
}

// NewStore returns a Store over the given backend.
func NewStore(b Backend) *Store {
	return &Store{backend: b}
}

// Backend returns the store's backend (for CatchUp-style blob transfer).
func (s *Store) Backend() Backend { return s.backend }

// Put hashes data and stores it, skipping the backend write when a blob
// with the same hash already exists (content addressing makes the
// existence check sufficient: same hash, same bytes). The caller must not
// modify data after Put returns.
func (s *Store) Put(data []byte) (Hash, error) {
	h := Sum(data)
	ok, err := s.backend.Has(h)
	if err != nil {
		return Hash{}, fmt.Errorf("has %s: %w", h, err)
	}
	if !ok {
		if err := s.backend.Put(h, data); err != nil {
			return Hash{}, fmt.Errorf("put %s: %w", h, err)
		}
	}
	s.mu.Lock()
	s.stats.Puts++
	s.stats.PutBytes += int64(len(data))
	if !ok {
		s.stats.Stored++
		s.stats.StoredBytes += int64(len(data))
	}
	s.mu.Unlock()
	return h, nil
}

// Get returns the blob stored under h after verifying that its bytes
// still hash to h; a mismatch is reported as ErrCorrupt, never returned
// as data.
func (s *Store) Get(h Hash) ([]byte, error) {
	data, err := s.backend.Get(h)
	if err != nil {
		return nil, err
	}
	if Sum(data) != h {
		return nil, fmt.Errorf("%s: %w", h, ErrCorrupt)
	}
	return data, nil
}

// Stats returns a copy of the dedup counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Verify re-hashes every blob in the store and returns the hashes whose
// bytes no longer match — the store's corruption report.
func (s *Store) Verify() (corrupt []Hash, err error) {
	err = s.backend.List(func(h Hash) error {
		data, err := s.backend.Get(h)
		if err != nil {
			return fmt.Errorf("verify %s: %w", h, err)
		}
		if Sum(data) != h {
			corrupt = append(corrupt, h)
		}
		return nil
	})
	return corrupt, err
}

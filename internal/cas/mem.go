package cas

import "sync"

// Mem is an in-memory Backend: a map guarded by a mutex. It copies blobs
// on the way in and out, as the Backend contract asks: a caller's later
// write into either slice changes no stored blob.
type Mem struct {
	mu    sync.RWMutex
	blobs map[Hash][]byte
}

var _ Backend = (*Mem)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{blobs: make(map[Hash][]byte)}
}

// Put stores a copy of data under h.
func (m *Mem) Put(h Hash, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[h]; ok {
		return nil // immutable: the existing bytes are the same bytes
	}
	m.blobs[h] = cp
	return nil
}

// Get returns a copy of the blob stored under h.
func (m *Mem) Get(h Hash) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.blobs[h]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Has reports whether a blob is stored under h.
func (m *Mem) Has(h Hash) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.blobs[h]
	return ok, nil
}

// List calls fn for every stored hash.
func (m *Mem) List(fn func(Hash) error) error {
	m.mu.RLock()
	hashes := make([]Hash, 0, len(m.blobs))
	for h := range m.blobs {
		hashes = append(hashes, h)
	}
	m.mu.RUnlock()
	for _, h := range hashes {
		if err := fn(h); err != nil {
			return err
		}
	}
	return nil
}

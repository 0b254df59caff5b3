package cas

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// backends returns one of every Backend implementation, fresh.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	local, err := OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"mem":   NewMem(),
		"local": local,
	}
}

// TestBackendContract is what every Backend owes its callers, run over
// each implementation in backends: Put keeps no reference to data and Get
// returns bytes the caller owns, so writing into either leaves the stored
// blob whole; putting a stored blob again is a no-op; Has and List see
// exactly what was put.
func TestBackendContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("a blob's bytes")
			want, h := bytes.Clone(data), Sum(data)
			if ok, err := b.Has(h); err != nil || ok {
				t.Fatalf("Has before Put = %v, %v", ok, err)
			}
			if err := b.Put(h, data); err != nil {
				t.Fatal(err)
			}
			data[0] = 'X' // the caller reuses its buffer
			got, err := b.Get(h)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get after a write into Put's data = %q, %v; want %q", got, err, want)
			}
			got[0] = 'Y' // the caller writes into what Get returned
			if err := b.Put(h, want); err != nil {
				t.Fatalf("putting a stored blob again: %v", err)
			}
			if again, err := b.Get(h); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("Get after a write into Get's result and a re-Put = %q, %v; want %q", again, err, want)
			}
			var listed []Hash
			if err := b.List(func(x Hash) error { listed = append(listed, x); return nil }); err != nil {
				t.Fatal(err)
			}
			if ok, err := b.Has(h); err != nil || !ok || len(listed) != 1 || listed[0] != h {
				t.Fatalf("Has = %v, %v; List = %v; want %s alone", ok, err, listed, h)
			}
		})
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewStore(b)
			data := []byte("hello, blobs")
			h, err := s.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			if h != Sum(data) {
				t.Fatalf("hash %s != Sum %s", h, Sum(data))
			}
			got, err := s.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("got %q, want %q", got, data)
			}
			ok, err := b.Has(h)
			if err != nil || !ok {
				t.Fatalf("Has = %v, %v", ok, err)
			}
			if _, err := s.Get(Sum([]byte("absent"))); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent Get err = %v", err)
			}
		})
	}
}

func TestStoreDedup(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewStore(b)
			blob := []byte("shared subtree bytes")
			for i := 0; i < 4; i++ {
				if _, err := s.Put(blob); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Put([]byte("unique")); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Puts != 5 || st.Stored != 2 {
				t.Fatalf("stats = %+v, want 5 puts / 2 stored", st)
			}
			if st.DedupRatio() <= 1 {
				t.Fatalf("dedup ratio %v, want > 1", st.DedupRatio())
			}
		})
	}
}

func TestStoreImmutability(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewStore(b)
			data := []byte("immutable")
			h, err := s.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			// Mutating what Get returned must not corrupt the store.
			got[0] = 'X'
			again, err := s.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("stored blob changed to %q", again)
			}
		})
	}
}

func TestListAndVerify(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewStore(b)
			want := make(map[Hash]bool)
			for i := 0; i < 10; i++ {
				h, err := s.Put([]byte(fmt.Sprintf("blob-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				want[h] = true
			}
			got := make(map[Hash]bool)
			if err := b.List(func(h Hash) error {
				got[h] = true
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("listed %d blobs, want %d", len(got), len(want))
			}
			for h := range want {
				if !got[h] {
					t.Fatalf("List missed %s", h)
				}
			}
			corrupt, err := s.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if len(corrupt) != 0 {
				t.Fatalf("clean store reports corrupt blobs: %v", corrupt)
			}
		})
	}
}

func TestParseHash(t *testing.T) {
	h := Sum([]byte("x"))
	back, err := ParseHash(h.String())
	if err != nil || back != h {
		t.Fatalf("round trip: %v, %v", back, err)
	}
	if _, err := ParseHash("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := ParseHash("abcd"); err == nil {
		t.Fatal("short hash accepted")
	}
	if (Hash{}).IsZero() != true || h.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestStoreConcurrentPut(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := NewStore(b)
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func(g int) {
					var err error
					for i := 0; i < 50 && err == nil; i++ {
						// Half shared across goroutines, half unique.
						_, err = s.Put([]byte(fmt.Sprintf("blob-%d", i%25+g*(i%2)*100)))
					}
					done <- err
				}(g)
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if corrupt, err := s.Verify(); err != nil || len(corrupt) != 0 {
				t.Fatalf("after concurrent puts: corrupt=%v err=%v", corrupt, err)
			}
		})
	}
}

package varenc

import (
	"encoding/binary"
	"errors"
	"testing"
)

// The encoders' output reads back through the Reader field for field, and
// a reader that consumed exactly its input ends clean.
func TestRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = AppendString(b, "usr")
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "")
	b = append(b, 7)
	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d, want 300", v)
	}
	if s := string(r.Bytes()); s != "usr" {
		t.Errorf("Bytes = %q, want usr", s)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not read back true, false")
	}
	if s := r.Bytes(); len(s) != 0 {
		t.Errorf("empty string read back as %q", s)
	}
	if c := r.Byte(); c != 7 {
		t.Errorf("Byte = %d, want 7", c)
	}
	if err := r.End(); err != nil {
		t.Errorf("End = %v, want nil", err)
	}
}

// The first failure sticks: later reads return zero values even where the
// input still has bytes, and neither a later failure nor End replaces it.
func TestFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{0x80, 0x80}) // a uvarint cut short, then nothing
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), errVarint) {
		t.Fatalf("Uvarint = %d, err %v; want 0, errVarint", v, r.Err())
	}

	r = NewReader([]byte{2, 1, 1}) // Bool of 2, then two readable bytes
	if r.Bool() {
		t.Error("Bool(2) = true")
	}
	if c := r.Byte(); c != 0 {
		t.Errorf("Byte after a failure = %d, want 0", c)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint after a failure = %d, want 0", v)
	}
	if n := r.Count(); n != 0 {
		t.Errorf("Count after a failure = %d, want 0", n)
	}
	if b := r.Bytes(); len(b) != 0 {
		t.Errorf("Bytes after a failure = %v, want empty", b)
	}
	if b := r.Fixed(1); b != nil {
		t.Errorf("Fixed after a failure = %v, want nil", b)
	}
	if left := len(r.b) - r.off; left != 0 {
		t.Errorf("%d bytes left after a failure, want 0", left)
	}
	r.Fail(errors.New("later"))
	if err := r.End(); !errors.Is(err, errBool) {
		t.Errorf("End = %v, want the first failure, errBool", err)
	}
}

// A count the remaining bytes cannot hold fails at Count, returning 0, so
// a caller that sizes an allocation by it never sees the hostile value. A
// count of exactly the bytes left is accepted.
func TestCountBeyondLen(t *testing.T) {
	r := NewReader(binary.AppendUvarint(nil, 1<<40))
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), errCount) {
		t.Fatalf("Count = %d, err %v; want 0, errCount", n, r.Err())
	}
	r = NewReader([]byte{3, 'a', 'b'})
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), errCount) {
		t.Fatalf("Count(3) over 2 bytes = %d, err %v; want 0, errCount", n, r.Err())
	}
	r = NewReader([]byte{2, 'a', 'b'})
	if n := r.Count(); n != 2 || r.Err() != nil {
		t.Fatalf("Count(2) over 2 bytes = %d, err %v; want 2, nil", n, r.Err())
	}
}

// Bools are strictly 0 or 1.
func TestBoolRejectsTwo(t *testing.T) {
	r := NewReader([]byte{0, 1, 2})
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("0, 1 did not read as false, true: %v", r.Err())
	}
	if r.Bool() || !errors.Is(r.Err(), errBool) {
		t.Fatalf("Bool(2): err = %v, want errBool", r.Err())
	}
}

// End fails a reader with bytes left; a short read fails at the field.
func TestEnd(t *testing.T) {
	r := NewReader([]byte{1, 0xFF})
	r.Uvarint()
	if err := r.End(); !errors.Is(err, errTrailing) {
		t.Errorf("End with a byte left = %v, want errTrailing", err)
	}
	r = NewReader(nil)
	r.Byte()
	if err := r.End(); !errors.Is(err, errShort) {
		t.Errorf("End after a short Byte = %v, want errShort", err)
	}
	r = NewReader([]byte{1, 2})
	if b := r.Fixed(3); b != nil || !errors.Is(r.Err(), errShort) {
		t.Errorf("Fixed(3) over 2 bytes = %v, err %v; want nil, errShort", b, r.Err())
	}
	r = NewReader([]byte{1, 2})
	if b := r.Fixed(-1); b != nil || !errors.Is(r.Err(), errShort) {
		t.Errorf("Fixed(-1) = %v, err %v; want nil, errShort", b, r.Err())
	}
}

// Bytes and Fixed return views into the input, not copies: decoders intern
// or copy what they keep, and a read that allocated would tax every frame.
func TestViewsAliasTheInput(t *testing.T) {
	in := []byte{2, 'h', 'i', 'x', 'y', 'z'}
	r := NewReader(in)
	b := r.Bytes()
	f := r.Fixed(3)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if &b[0] != &in[1] || &f[0] != &in[3] {
		t.Fatal("Bytes/Fixed copied instead of returning views into the input")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(in)
		r.Bytes()
		r.Fixed(3)
		_ = r.End()
	}); allocs != 0 {
		t.Errorf("decoding views allocated %.0f times, want 0", allocs)
	}
}

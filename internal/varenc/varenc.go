// Package varenc holds the byte primitives the module's two binary formats
// share: the wire protocol's frames (internal/nameserver) and the durable
// node blobs (internal/snapstore). A name embedded in a message and a name
// embedded in a stored object are one problem (§6), so both are written
// and read one way:
//
//   - unsigned integers, counts and lengths are uvarints (the standard
//     library's binary.AppendUvarint writes them)
//   - bools are one byte, strictly 0 or 1
//   - strings and byte strings are a uvarint length, then the bytes
//
// Encoders append to a caller-owned buffer; Reader decodes. Neither
// allocates.
package varenc

import (
	"encoding/binary"
	"errors"
)

// Decode failures. One value each: a malformed input is refused whole, so
// the errors carry no per-input detail and cost nothing to return.
var (
	errShort    = errors.New("varenc: truncated field")
	errVarint   = errors.New("varenc: truncated or overlong uvarint")
	errCount    = errors.New("varenc: count exceeds the bytes left")
	errBool     = errors.New("varenc: bool byte is neither 0 nor 1")
	errTrailing = errors.New("varenc: trailing bytes after the message")
)

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	return b
}

// AppendBool appends a strict 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	c := byte(0)
	if v {
		c = 1
	}
	b = append(b, c)
	return b
}

// Reader decodes the primitives from one byte slice. Its first failure
// sticks: from then on the input reads as exhausted, every read returns a
// zero value, and Err reports that first failure. So a decoder reads its
// fields unchecked and checks once, at the end — and arbitrary bytes can
// never panic it or make it read past the input.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded, and exhausts the
// input. Decoders call it for what only they can judge (a bad magic byte, an
// unknown kind).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

// End fails a reader that has bytes left, then returns Err: a message is
// exactly its fields.
func (r *Reader) End() error {
	if r.off != len(r.b) {
		r.Fail(errTrailing)
	}
	return r.err
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail(errVarint)
		return 0
	}
	r.off += n
	return v
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.Fail(errShort)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// Bool decodes a strict 0/1 byte: a 2 is malformed, not true.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(errBool)
		return false
	}
	return c == 1
}

// Count decodes a collection length, bounded by the bytes left: every
// element costs at least one byte, so a larger count is malformed — and a
// hostile count fails here, before a caller can size an allocation by it.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > uint64(len(r.b)-r.off) {
		r.Fail(errCount)
		return 0
	}
	return int(v)
}

// Bytes decodes a length-prefixed byte string as a view into the input (no
// copy: a caller that keeps it past the input's lifetime copies it).
func (r *Reader) Bytes() []byte { return r.Fixed(r.Count()) }

// Fixed decodes exactly n raw bytes (no length prefix) as a view into the
// input.
func (r *Reader) Fixed(n int) []byte {
	if uint(n) > uint(len(r.b)-r.off) {
		r.Fail(errShort)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"namecoherence/internal/core"
)

// The canonical encoding primitives: unsigned varints, length-prefixed
// strings, and compound names built from them. Everything the module
// writes to disk is a snapstore node blob framed with these, so there is
// exactly one on-disk context encoding and its determinism is decided
// here: no maps are iterated, no reflection runs, and every writer sorts
// before it appends.

// ErrTruncated is wrapped by every decode error caused by running out of
// bytes or reading malformed framing.
var ErrTruncated = errors.New("truncated or malformed encoding")

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendPath appends a compound name: component count, then each simple
// name length-prefixed.
func appendPath(buf []byte, p core.Path) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, n := range p {
		buf = appendString(buf, string(n))
	}
	return buf
}

// reader decodes the canonical primitives from a byte slice. The first
// framing error sticks: every subsequent read returns the zero value, and
// Err reports what went wrong, so decode loops can run unchecked and
// validate once at the end.
type reader struct {
	buf []byte
	off int
	err error
}

// newReader returns a reader over buf.
func newReader(buf []byte) *reader {
	return &reader{buf: buf}
}

// Err returns the sticky decode error, if any.
func (r *reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d: %w", what, r.off, ErrTruncated)
	}
}

// Uvarint decodes one unsigned varint.
func (r *reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Byte decodes one raw byte.
func (r *reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// String decodes a length-prefixed string.
func (r *reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Fixed decodes exactly n raw bytes (no length prefix), returning a view
// into the underlying buffer.
func (r *reader) Fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.fail("fixed bytes")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Path decodes a compound name.
func (r *reader) Path() core.Path {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// Each component costs at least one length byte; reject counts the
	// remaining bytes cannot possibly satisfy before allocating.
	if n > uint64(r.Len()) {
		r.fail("path length")
		return nil
	}
	p := make(core.Path, 0, n)
	for i := uint64(0); i < n; i++ {
		p = append(p, core.Name(r.String()))
	}
	if r.err != nil {
		return nil
	}
	return p
}

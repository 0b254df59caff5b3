package nameserver

import (
	"errors"
	"fmt"
	"strings"

	"namecoherence/internal/core"
)

// ErrNotCanonical reports a name that cannot cross the wire coherently:
// resolved on the far side, it would not denote what the sender meant.
// The paper's §6 remedy is mechanical — convert every name to its
// coherent (canonical) form before embedding it in an object or message —
// and this boundary is where the conversion (and its failures) live.
var ErrNotCanonical = errors.New("name is not wire-canonical")

// checkWireCanonical validates p as a canonical wire path: non-empty, no
// empty components, and no component containing the path separator. An
// empty path names "wherever the server's export root happens to be"; a
// separator inside a component smuggles extra resolution steps past the
// sender's own parse — both resolve differently on the two sides of the
// wire, which is precisely the incoherence §6 forbids.
func checkWireCanonical(p core.Path) error {
	if !p.IsValid() {
		//namingvet:allocfree-exempt -- cold: a rejected name formats its error
		return fmt.Errorf("path %q: %w", p.String(), ErrNotCanonical)
	}
	for _, n := range p {
		if strings.Contains(string(n), core.Separator) {
			//namingvet:allocfree-exempt -- cold: a rejected name formats its error
			return fmt.Errorf("component %q of %q contains %q: %w",
				string(n), p.String(), core.Separator, ErrNotCanonical)
		}
	}
	return nil
}

// CanonicalWirePath converts p to its canonical wire form, rejecting
// names that cannot round-trip coherently. Every value stored in a wire
// request's Path field must come from here (wirecanon enforces it).
//
//namingvet:canonicalizer
func CanonicalWirePath(p core.Path) ([]string, error) {
	if err := checkWireCanonical(p); err != nil {
		return nil, err
	}
	raw := make([]string, len(p))
	for i, n := range p {
		raw[i] = string(n)
	}
	return raw, nil
}

// AppendWireKey appends p to b as one string — its components joined by
// core.Separator, the bytes p.String() gives — and fails exactly when
// CanonicalWirePath fails, with the same error, leaving b as it was. It is
// the §6 check and the cache key in one pass over the name: a client cache
// renders its key into a reused buffer and probes with string(buf), so a
// hit validates the name and allocates nothing. A canonical key is
// unambiguous: no component holds the separator, so two paths render the
// same key only if they are the same path.
func AppendWireKey(b []byte, p core.Path) ([]byte, error) {
	if len(p) == 0 {
		return b, checkWireCanonical(p)
	}
	start := len(b)
	for i, n := range p {
		if n == "" || strings.IndexByte(string(n), core.Separator[0]) >= 0 {
			return b[:start], checkWireCanonical(p)
		}
		if i > 0 {
			b = append(b, core.Separator...)
		}
		b = append(b, n...)
	}
	return b, nil
}

// canonicalWirePaths converts a batch, rejecting the whole batch on the
// first non-canonical path: a batch is one message, and a message with
// one incoherent name in it is an incoherent message.
//
//namingvet:canonicalizer
func canonicalWirePaths(paths []core.Path) ([][]string, error) {
	raws := make([][]string, len(paths))
	for k, p := range paths {
		raw, err := CanonicalWirePath(p)
		if err != nil {
			return nil, err
		}
		raws[k] = raw
	}
	return raws, nil
}

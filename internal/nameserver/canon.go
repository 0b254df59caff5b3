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

// badComponent reports whether n cannot be one component of a canonical
// wire name: it is empty, or it holds the path separator and so smuggles
// extra resolution steps past the sender's own parse.
func badComponent(n core.Name) bool {
	return n == "" || strings.IndexByte(string(n), core.Separator[0]) >= 0
}

// CheckWireCanonical validates p as a canonical wire path: non-empty, and
// no component empty or holding the separator. An empty path names
// "wherever the server's export root happens to be"; a bad component
// resolves differently on the two sides of the wire — precisely the
// incoherence §6 forbids. Both ends apply it: the client before a request
// leaves (request.checkCanonical), the server where a name is used.
func CheckWireCanonical(p core.Path) error {
	if !p.IsValid() {
		return fmt.Errorf("path %q: %w", p.String(), ErrNotCanonical)
	}
	for _, n := range p {
		if badComponent(n) {
			return fmt.Errorf("component %q of %q contains %q: %w",
				string(n), p.String(), core.Separator, ErrNotCanonical)
		}
	}
	return nil
}

// checkCanonical is the send side's one §6 check: Client.send refuses a
// request that carries a non-canonical name before a byte of it is
// written, and the call fails alone. Every path the request carries must
// be made of good components; a resolve must name something (a mutation's
// empty Path is the export root, and a routing fetch or a subscription
// carries none); a mutation's Name must be one good component.
func (req *request) checkCanonical() error {
	if req.Op != opNone && badComponent(core.Name(req.Name)) {
		return fmt.Errorf("binding name %q: %w", req.Name, ErrNotCanonical)
	}
	resolve := req.Op == opNone && !req.Routes && !req.Subscribe && len(req.Paths) == 0
	if len(req.Path) > 0 || resolve {
		if err := CheckWireCanonical(req.Path); err != nil {
			return err
		}
	}
	for _, p := range req.Paths {
		if err := CheckWireCanonical(p); err != nil {
			return err
		}
	}
	return nil
}

// AppendWireKey appends p to b as one string — its components joined by
// core.Separator, the bytes p.String() gives — and fails exactly when
// CheckWireCanonical fails, with the same error, leaving b as it was. It
// is the §6 check and the cache key in one pass over the name: a client
// cache renders its key into a reused buffer and probes with string(buf),
// so a hit validates the name and allocates nothing. A canonical key is
// unambiguous: no component holds the separator, so two paths render the
// same key only if they are the same path.
func AppendWireKey(b []byte, p core.Path) ([]byte, error) {
	if len(p) == 0 {
		return b, CheckWireCanonical(p)
	}
	start := len(b)
	for i, n := range p {
		if badComponent(n) {
			return b[:start], CheckWireCanonical(p)
		}
		if i > 0 {
			b = append(b, core.Separator...)
		}
		b = append(b, n...)
	}
	return b, nil
}

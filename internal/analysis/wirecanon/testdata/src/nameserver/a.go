// Package nameserver exercises wirecanon: values flowing into a wire
// struct's Path/Paths fields must come from a canonicalization function,
// and a core.Path-taking function that reaches the wire must canonicalize.
// (The directory is named nameserver so the testdata package path lands in
// the analyzer's scope.)
package nameserver

import (
	"net"
	"time"

	"namecoherence/internal/core"
)

// request is this fixture's wire struct (the Path/Paths duck test).
type request struct {
	Path  []string
	Paths [][]string
	Other int
}

// canonical is the fixture's §6 conversion point.
//
//namingvet:canonicalizer
func canonical(p core.Path) ([]string, error) {
	out := make([]string, len(p))
	for i, n := range p {
		out[i] = string(n)
	}
	return out, nil
}

// mustCanonical is a single-result canonicalizer for direct field use.
//
//namingvet:canonicalizer
func mustCanonical(p core.Path) []string {
	out, _ := canonical(p)
	return out
}

// wrapper forwards a canonicalizer call, which makes it one.
func wrapper(p core.Path) ([]string, error) {
	return canonical(p)
}

// toStrings converts without the canonicalizer's checks — not a
// canonicalization point.
func toStrings(p core.Path) []string {
	out := make([]string, len(p))
	for i, n := range p {
		out[i] = string(n)
	}
	return out
}

func okLiteral(p core.Path) request {
	raw, _ := canonical(p)
	return request{Path: raw}
}

func okWrapper(p core.Path) request {
	raw, _ := wrapper(p)
	return request{Path: raw}
}

func okDirectCall(p core.Path) request {
	return request{Path: mustCanonical(p)}
}

func okEmpty() request {
	// nil and make start empty containers; their element stores are
	// checked at the stores' own sites.
	return request{Path: nil, Paths: make([][]string, 0)}
}

func okIndexed(p core.Path, req *request) {
	raws, _ := canonical(p)
	req.Path = raws
	req.Paths = make([][]string, 1)
	req.Paths[0] = mustCanonical(p)
}

func badLiteral(p core.Path) request {
	return request{Path: toStrings(p)} // want `value stored in wire field request\.Path does not pass through a canonicalization function`
}

func badAssign(p core.Path, req *request) {
	req.Path = toStrings(p) // want `value stored in wire field request\.Path does not pass through a canonicalization function`
}

func badElem(p core.Path, req *request) {
	for i, n := range p {
		req.Path[i] = string(n) // want `value stored in wire field request\.Path does not pass through a canonicalization function`
	}
}

func badPathsElem(p core.Path, req *request) {
	req.Paths[0] = toStrings(p) // want `value stored in wire field request\.Paths does not pass through a canonicalization function`
}

func badReassigned(p core.Path) request {
	raw, _ := canonical(p)
	raw = toStrings(p)        // reassignment from a non-canonical source clears the taint
	return request{Path: raw} // want `value stored in wire field request\.Path does not pass through a canonicalization function`
}

// badBoundary takes a name to the wire without any conversion on the way.
func badBoundary(conn net.Conn, p core.Path) error { // want `badBoundary takes a core\.Path and reaches wire I/O but never canonicalizes a name`
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	_, err := conn.Write([]byte{byte(len(p))})
	return err
}

// okBoundary canonicalizes before encoding.
func okBoundary(conn net.Conn, p core.Path) error {
	raw, err := canonical(p)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	req := request{Path: raw}
	_, err = conn.Write([]byte(req.Path[0]))
	return err
}

// okBoundaryTransitive reaches the canonicalizer through a helper.
func okBoundaryTransitive(conn net.Conn, p core.Path) error {
	return okBoundary(conn, p)
}

// okNoWire touches no conn: rule 2 does not apply.
func okNoWire(p core.Path) int {
	return len(toStrings(p))
}

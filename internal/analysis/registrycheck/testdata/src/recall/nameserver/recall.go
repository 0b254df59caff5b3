// Package nameserver holds the shape registrycheck guards, beside the
// forms it keeps. CHANGES.md credits the analyzer with no caught bug, so
// this is the guarded shape, not a past finding: a request field that only
// the request's own codec reads must keep firing; the request fields a
// handler reads, including one it only stores through, must stay silent.
// (The directory is named nameserver so the package lands in the
// analyzer's scope.)
package nameserver

// request is one wire request. Twin was added to the frame and to both
// codec functions, but no handler reads it.
type request struct {
	Op    uint8
	Path  []string
	Paths [][]string
	Twin  string // want `request field Twin is never read in this package: a request kind no handler serves`
}

// serve is the handler: it reads Op, Path and Paths (the last only to
// index a store into it), never Twin.
func serve(req *request) int {
	if req.Op == 0 {
		req.Paths[0] = req.Path
		return len(req.Path)
	}
	return 0
}

func appendRequest(b []byte, req *request) []byte {
	b = append(b, req.Op)
	for _, s := range req.Path {
		b = append(b, s...)
	}
	for _, p := range req.Paths {
		b = append(b, byte(len(p)))
	}
	return append(b, req.Twin...)
}

func parseRequest(data []byte, req *request) {
	req.Op = data[0]
	req.Path = []string{string(data[1:])}
	req.Paths = nil
	req.Twin = ""
}

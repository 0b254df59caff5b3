// Package nameserver holds the shapes registrycheck guards, beside the
// forms the wire registry keeps. CHANGES.md credits the analyzer with no
// caught bug, so these are the guarded shapes, not a past finding: a
// result field its encoder forgot, a struct that reaches the wire through
// a field but is missing from the registry, and a request field that only
// the request's own codec reads must keep firing; the fields both codec
// functions touch, the registered types and the request fields a handler
// reads must stay silent. (The directory is named nameserver so the
// package lands in the analyzer's scope.)
package nameserver

// request is one wire request. Twin was added to the frame and to both
// codec functions, but no handler reads it.
type request struct {
	Op   uint8
	Path []string
	Twin string // want `request field Twin is never read in this package: a request kind no handler serves`
}

// result is one name's answer. Rev was added to the struct and to the
// decoder, but the encoder was not updated.
type result struct {
	Entity uint64
	Rev    uint64
	Route  *routeInfo
}

// routeInfo rides inside result but was never registered.
type routeInfo struct { // want `wire type routeInfo is reachable from the binary codec but is missing from the wireTypes registry`
	Prefixes []string
}

var wireTypes = map[string]any{
	"request": request{},
	"result":  result{},
}

// serve is the handler: it reads Op and Path, never Twin.
func serve(req *request) result {
	if req.Op == 0 {
		return result{Entity: uint64(len(req.Path))}
	}
	return result{}
}

func appendRequest(b []byte, req *request) []byte {
	b = append(b, req.Op)
	for _, s := range req.Path {
		b = append(b, s...)
	}
	return append(b, req.Twin...)
}

func parseRequest(data []byte, req *request) {
	req.Op = data[0]
	req.Path = []string{string(data[1:])}
	req.Twin = ""
}

func appendResult(b []byte, r *result) []byte { // want `binary codec function appendResult never touches result.Rev: the field would be silently dropped from binary frames`
	b = append(b, byte(r.Entity))
	if r.Route != nil {
		b = appendRouteInfo(b, r.Route)
	}
	return b
}

func parseResult(data []byte, r *result) {
	r.Entity = uint64(data[0])
	r.Rev = uint64(data[1])
	r.Route = nil
}

func appendRouteInfo(b []byte, ri *routeInfo) []byte {
	for _, p := range ri.Prefixes {
		b = append(b, p...)
	}
	return b
}

// Package nameserver exercises registrycheck: the wireTypes registry must
// list exactly the package-local structs the codec functions can put on
// the wire, and every request field must be read by some handler. (The
// directory is named nameserver so the testdata package path lands in the
// analyzer's scope.)
package nameserver

// request is the wire request; Watch is a kind no handler ever looks at —
// the encoder reading it to put it on the wire is not handling it.
type request struct {
	Op    string
	Path  []string
	Watch bool // want `request field Watch is never read in this package: a request kind no handler serves`
}

// response crosses the wire and drags result along through its field.
type response struct {
	Results []result
	Err     string
}

// result is reachable only through response.Results, which is enough.
type result struct {
	Addr string
}

// orphan has an encoder below but was never registered.
type orphan struct { // want `wire type orphan is reachable from the binary codec but is missing from the wireTypes registry`
	X int
}

// stale is registered but no codec function encodes or reaches it.
type stale struct {
	Y int
}

// unrelated neither crosses the wire nor is registered: no complaint.
type unrelated struct {
	Z int
}

var wireTypes = map[string]any{
	"request":  request{},
	"response": response{},
	"result":   result{},
	"stale":    stale{}, // want `wireTypes entry stale is not reachable from any binary codec function; dead registry entries hide real gaps`
}

func appendRequest(b []byte, req *request) []byte {
	b = append(b, req.Op...)
	for _, s := range req.Path {
		b = append(b, s...)
	}
	if req.Watch {
		b = append(b, 1)
	}
	return b
}

func parseRequest(data []byte, req *request) {
	req.Op = string(data[:1])
	req.Path = []string{string(data[1:])}
	req.Watch = false
}

func appendResponse(b []byte, resp *response) []byte {
	for i := range resp.Results {
		b = appendResult(b, &resp.Results[i])
	}
	return append(b, resp.Err...)
}

func parseResponse(data []byte, resp *response) {
	resp.Results = make([]result, 1)
	parseResult(data, &resp.Results[0])
	resp.Err = ""
}

func appendResult(b []byte, res *result) []byte { return append(b, res.Addr...) }

func parseResult(data []byte, res *result) { res.Addr = string(data) }

func appendOrphan(b []byte, o *orphan) []byte { return append(b, byte(o.X)) }

func serve(req *request) response {
	switch req.Op {
	case "resolve":
		return response{Results: []result{{Addr: join(req.Path)}}}
	default:
		return response{Err: "unknown op"}
	}
}

func join(parts []string) string {
	out := ""
	for _, p := range parts {
		out += "/" + p
	}
	return out
}

var _ = unrelated{}

// Package nameserver exercises registrycheck: every request field must be
// read by some handler. (The directory is named nameserver so the
// testdata package path lands in the analyzer's scope.)
package nameserver

// request is the wire request; Watch is a kind no handler ever looks at —
// the encoder reading it to put it on the wire is not handling it.
type request struct {
	Op    string
	Path  []string
	Watch bool // want `request field Watch is never read in this package: a request kind no handler serves`
}

// response is what serve answers with.
type response struct {
	Addr string
	Err  string
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

func serve(req *request) response {
	switch req.Op {
	case "resolve":
		return response{Addr: join(req.Path)}
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

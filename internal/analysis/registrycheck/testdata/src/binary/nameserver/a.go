// Package nameserver exercises registrycheck's codec completeness rule:
// every registered wire type needs both append<T> and parse<T>, and each
// must touch every field. (The directory is named "nameserver" so the
// package lands in the analyzer's scope.)
package nameserver

// request has a binary codec pair below; the encoder forgets Seq.
type request struct {
	ID   uint64
	Path []string
	Seq  uint64
}

// ack is registered and has an encoder, but nothing can decode it.
type ack struct {
	OK bool
}

var wireTypes = map[string]any{
	"request": request{},
	"ack":     ack{}, // want `wire type ack has no binary codec function`
}

func serve(req *request) ack {
	use(req.ID, req.Path, req.Seq)
	return ack{OK: true}
}

func use(...any) {}

// appendRequest covers ID and Path but skips Seq: the field would vanish
// from every binary frame without a runtime error.
func appendRequest(b []byte, req *request) []byte { // want `binary codec function appendRequest never touches request.Seq`
	b = append(b, byte(req.ID))
	for _, s := range req.Path {
		b = append(b, s...)
	}
	return b
}

// parseRequest touches every field: no complaint.
func parseRequest(data []byte, req *request) error {
	req.ID = uint64(data[0])
	req.Path = []string{string(data[1:])}
	req.Seq = 0
	return nil
}

func appendAck(b []byte, a *ack) []byte {
	if a.OK {
		return append(b, 1)
	}
	return append(b, 0)
}

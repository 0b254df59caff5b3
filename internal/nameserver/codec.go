// Binary wire codec: a hand-rolled, length-prefixed encoding for the
// closed wire-type set in wire.go, and the only one the protocol has. It
// encodes by appending to a reused buffer and decodes by slicing a reused
// frame, so a steady resolve round-trip touches the allocator zero times.
//
// # Framing
//
// Every message is one frame: a uvarint byte length followed by exactly
// that many body bytes. The body is the message's fields in struct
// declaration order (wire.go is the schema; TestWireRoundTrip fills every
// field of every type reachable from request and response and requires it
// back), written with internal/varenc's primitives — uvarints, strict 0/1
// bools, length-prefixed strings — and read with its sticky-error Reader,
// the same ones snapstore's node blobs use. Beyond those:
//
//   - single-byte fields (uint8) are one raw byte
//   - slices are a uvarint count followed by the elements; a zero count
//     decodes to nil (nil and empty collapse; no caller tells them apart)
//   - a path (core.Path) is a slice of components, each a string
//   - the one pointer field (response.Routes) is a presence bool, then
//     the RouteInfo body if present
//
// Which message type a frame holds is positional, never encoded:
// clients only send requests and servers only send responses.
//
// No end writes a body over maxFrame, since its peer would refuse the
// frame and drop the stream. A response that would be larger goes out as
// an error response naming the bound (see connState.encode). A request
// that would be larger fails as its own call, and nothing is sent (see
// Client.send); so does a request carrying a name that is not
// wire-canonical (request.checkCanonical). The codec itself encodes any
// value: the §6 check belongs to the send path, not to the bytes.
//
// # Negotiation
//
// A connection opens with a version handshake, one byte each way, before
// any frame. The client sends the version of the layout it speaks; the
// server answers with the one version it speaks, whatever it was sent.
// Equal bytes mean both ends encode the layout in this file and frames
// follow. Anything else is a refusal: the server closes the connection
// after its byte, and the client fails with ErrProtocolVersion naming both
// versions — there is no second codec to fall back to. The version is
// 0xB2 (0xB1 was the layout before responses carried Dir and Name); a
// change of layout takes the next value.
package nameserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"syscall"

	"namecoherence/internal/core"
	"namecoherence/internal/varenc"
)

// binaryMagic is the protocol version: the byte each end opens with (see
// the package comment's Negotiation section).
const binaryMagic byte = 0xB2

// ErrProtocolVersion reports a peer that speaks another version of the
// wire protocol. The connection is unusable; upgrade the older end.
var ErrProtocolVersion = errors.New("nameserver: wire protocol version mismatch")

// maxFrame bounds a frame body. Requests and responses are small (the
// largest realistic frame is a batch of resolutions); a length beyond
// this is a corrupt or hostile stream, refused before any allocation.
const maxFrame = 1 << 20

// errFrameTooBig refuses an incoming frame whose body exceeds maxFrame: no
// sound peer writes one, so the stream dies. A malformed body is refused
// by the varenc.Reader that decodes it.
var errFrameTooBig = errors.New("binary codec: frame exceeds size bound")

// errRequestTooBig refuses, before a byte is written, a request whose body
// would exceed maxFrame (see Client.send): the call fails alone. It wraps
// syscall.EMSGSIZE ("message too long") so a caller outside the package
// can tell it from a transport fault — no replica would take it either.
var errRequestTooBig = fmt.Errorf("binary codec: request exceeds the %d-byte frame bound: %w", maxFrame, syscall.EMSGSIZE)

// responseTooBig is what a server answers in place of a response whose
// body would exceed maxFrame (see connState.encode).
var responseTooBig = fmt.Sprintf("response exceeds the %d-byte frame bound: split the batch", maxFrame)

// writeFrame writes one length-prefixed frame to bw. Flushing is the
// caller's business (whoever is about to wait flushes: send, connState).
// The header goes out byte-at-a-time: a local array sliced into
// bw.Write escapes to the heap, and this sits on the per-request path.
func writeFrame(bw *bufio.Writer, body []byte) error {
	n := uint64(len(body))
	for n >= 0x80 {
		if err := bw.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// readFrame reads one frame body into *buf and returns the body slice. A
// body that fits the buffer is read straight into it; a larger one grows
// the buffer with the bytes that actually arrive (see growFrame), so the
// buffer reaches the connection's high-water frame size once, then is
// reused. A clean EOF at the frame boundary surfaces as io.EOF so the
// caller can tell a closed peer from a torn frame.
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	if uint64(cap(*buf)) < n {
		return growFrame(br, buf, int(n))
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// frameChunk is the most growFrame adds to a frame buffer ahead of the
// bytes that have arrived: what a peer that announces a large frame and
// then sends nothing can pin.
const frameChunk = 4 << 10

// growFrame reads an n-byte body too large for *buf, growing the buffer
// only ahead of what has arrived — by frameChunk, or by what it already
// holds, whichever is more — rather than to the announced length at once.
// A peer that announces maxFrame and sends four bytes pins frameChunk, not
// a megabyte; a frame that does arrive costs at most twice its size in
// copies.
func growFrame(br *bufio.Reader, buf *[]byte, n int) ([]byte, error) {
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), frameChunk)))
		}
		m, err := io.ReadFull(br, b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err != nil {
			if errors.Is(err, io.EOF) && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*buf = b
	return b, nil
}

// frameBuffered reports whether br already holds the whole of the next
// frame, so readFrame would return it without reading the connection.
// It peeks and allocates nothing.
func frameBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	r := varenc.NewReader(b)
	r.Count() // the length prefix, bounded by the bytes behind it
	return r.Err() == nil
}

// strIntern is a bounded string intern table: get returns a string equal
// to b, allocating only the first time a distinct value is seen. Decode
// runs the small recurring vocabulary of a connection — path components,
// binding names, and the sentinel error strings of failed resolutions
// (§4's locality of naming, observed at the codec) — through it, so a
// string that repeats frame after frame costs one allocation ever, not
// one per frame. The table resets when full, so an unbounded or hostile
// vocabulary cannot grow it without limit.
type strIntern struct {
	m map[string]string
}

// internLimit bounds the table; past it the table is discarded and
// rebuilt, keeping the steady state amortized-zero for any vocabulary
// that fits and merely amortized-small for one that does not.
const internLimit = 4096

func (in *strIntern) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // compiler elides the key copy
		return s
	}
	if in.m == nil || len(in.m) >= internLimit {
		in.m = make(map[string]string, 64)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// appendRequest appends req's binary body — every request field, in
// declaration order.
func appendRequest(b []byte, req *request) []byte {
	b = binary.AppendUvarint(b, req.ID)
	b = appendPath(b, req.Path)
	b = binary.AppendUvarint(b, uint64(len(req.Paths)))
	for _, p := range req.Paths {
		b = appendPath(b, p)
	}
	b = varenc.AppendBool(b, req.Routes)
	b = varenc.AppendBool(b, req.Subscribe)
	b = append(b, req.Op)
	b = varenc.AppendString(b, req.Name)
	b = binary.AppendUvarint(b, req.Target)
	b = append(b, req.TargetKind)
	b = binary.AppendUvarint(b, req.AtRev)
	b = binary.AppendUvarint(b, req.Twin)
	return b
}

// appendPath appends a path: its component count, then each component.
func appendPath(b []byte, p core.Path) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, n := range p {
		b = varenc.AppendString(b, string(n))
	}
	return b
}

// parseRequest decodes one request body into req, backing the Path and
// Paths slices with the worker's scratch buffers and interning the
// components (the working set of names repeats across frames). The
// decoded request is valid until the same scratch parses its next frame —
// exactly the lifetime the worker loop needs.
//
// Nothing here vouches for coherence: the receive boundary trusts no
// peer's encoder, so the server re-validates names where it uses them
// (resolveOne, applyMutation).
func parseRequest(data []byte, req *request, sc *workerScratch) error {
	r := varenc.NewReader(data)
	req.ID = r.Uvarint()
	sc.reqPath = parsePath(&r, sc.reqPath, &sc.names)
	req.Path = sc.reqPath
	if len(req.Path) == 0 {
		req.Path = nil
	}
	if n := r.Count(); n == 0 {
		req.Paths = nil
	} else {
		if cap(sc.reqPaths) < n {
			grown := make([]core.Path, n)
			copy(grown, sc.reqPaths)
			sc.reqPaths = grown
		}
		outer := sc.reqPaths[:n]
		for i := range outer {
			outer[i] = parsePath(&r, outer[i], &sc.names)
		}
		req.Paths = outer
	}
	req.Routes = r.Bool()
	req.Subscribe = r.Bool()
	req.Op = r.Byte()
	req.Name = sc.names.get(r.Bytes())
	req.Target = r.Uvarint()
	req.TargetKind = r.Byte()
	req.AtRev = r.Uvarint()
	req.Twin = r.Uvarint()
	return r.End()
}

// parsePath decodes one path into p's backing array, interning each
// component; the array grows to the connection's longest path once. A
// failure sticks in r for the enclosing message to report.
func parsePath(r *varenc.Reader, p core.Path, names *strIntern) core.Path {
	p = p[:0]
	for n := r.Count(); n > 0; n-- {
		p = append(p, core.Name(names.get(r.Bytes())))
	}
	return p
}

// appendResult appends one batch result's fields.
func appendResult(b []byte, res *result) []byte {
	b = binary.AppendUvarint(b, res.ID)
	b = append(b, res.Kind)
	b = varenc.AppendString(b, res.Err)
	b = binary.AppendUvarint(b, res.Dir)
	return b
}

// parseResult decodes one batch result, interning the error string (the
// sentinel failures — not found, not mine — repeat across frames). A
// failure sticks in r for the enclosing message to report.
func parseResult(r *varenc.Reader, res *result, errs *strIntern) {
	res.ID = r.Uvarint()
	res.Kind = r.Byte()
	res.Err = errs.get(r.Bytes())
	res.Dir = r.Uvarint()
}

// appendResponse appends resp's binary body — every response field, in
// declaration order.
func appendResponse(b []byte, resp *response) []byte {
	b = binary.AppendUvarint(b, resp.ID)
	b = binary.AppendUvarint(b, resp.Ent)
	b = append(b, resp.Kind)
	b = binary.AppendUvarint(b, resp.Rev)
	b = varenc.AppendString(b, resp.Err)
	b = binary.AppendUvarint(b, uint64(len(resp.Results)))
	for i := range resp.Results {
		b = appendResult(b, &resp.Results[i])
	}
	b = varenc.AppendBool(b, resp.Routes != nil)
	if resp.Routes != nil {
		b = appendRouteInfo(b, resp.Routes)
	}
	b = varenc.AppendBool(b, resp.Invalidation)
	b = binary.AppendUvarint(b, resp.Dir)
	b = varenc.AppendString(b, resp.Name)
	return b
}

// parseResponse decodes one response body into resp. Results reuses
// resp's own backing array (the caller owns resp, so nothing aliases),
// and error strings — and the few names a writer keeps rebinding, which
// is what pushed frames carry — intern via errs.
func parseResponse(data []byte, resp *response, errs *strIntern) error {
	r := varenc.NewReader(data)
	resp.ID = r.Uvarint()
	resp.Ent = r.Uvarint()
	resp.Kind = r.Byte()
	resp.Rev = r.Uvarint()
	resp.Err = errs.get(r.Bytes())
	if n := r.Count(); n == 0 {
		resp.Results = nil
	} else {
		// One array, sized once by the count. A result takes at least 4
		// bytes (ID, Kind, Err's length, Dir), so a count the frame cannot
		// hold gets no more than len(data)/4 slots, and the loop stops at
		// the first failure: a hostile maxFrame body costs at most
		// maxFrame/4 results before it is refused.
		rs := resp.Results[:0]
		if cap(rs) < n {
			rs = make([]result, 0, min(n, len(data)/4))
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			var res result
			parseResult(&r, &res, errs)
			rs = append(rs, res)
		}
		resp.Results = rs
	}
	resp.Routes = nil
	if r.Bool() {
		resp.Routes = parseRouteInfo(&r)
	}
	resp.Invalidation = r.Bool()
	resp.Dir = r.Uvarint()
	resp.Name = errs.get(r.Bytes())
	return r.End()
}

// appendRouteInfo appends a routing table: Prefixes as sorted key/value
// pairs (deterministic bytes, so identical tables encode identically),
// then Default, Addrs, and Replicas. Bootstrap-only, so the sort's
// allocation is off the steady path.
func appendRouteInfo(b []byte, ri *RouteInfo) []byte {
	keys := make([]string, 0, len(ri.Prefixes))
	for k := range ri.Prefixes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = varenc.AppendString(b, k)
		b = binary.AppendUvarint(b, uint64(ri.Prefixes[k]))
	}
	b = binary.AppendUvarint(b, uint64(ri.Default))
	b = binary.AppendUvarint(b, uint64(len(ri.Addrs)))
	for _, a := range ri.Addrs {
		b = varenc.AppendString(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(ri.Replicas)))
	for _, rs := range ri.Replicas {
		b = binary.AppendUvarint(b, uint64(len(rs)))
		for _, a := range rs {
			b = varenc.AppendString(b, a)
		}
	}
	return b
}

// parseRouteInfo decodes a routing table. Bootstrap-only: it allocates
// freely — the table is handed to the caller and outlives the frame. A
// failure sticks in r for the enclosing message to report.
func parseRouteInfo(r *varenc.Reader) *RouteInfo {
	ri := &RouteInfo{}
	if n := r.Count(); n > 0 {
		ri.Prefixes = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := string(r.Bytes())
			ri.Prefixes[k] = int(r.Uvarint())
		}
	}
	ri.Default = int(r.Uvarint())
	if n := r.Count(); n > 0 {
		ri.Addrs = make([]string, n)
		for i := range ri.Addrs {
			ri.Addrs[i] = string(r.Bytes())
		}
	}
	if n := r.Count(); n > 0 {
		ri.Replicas = make([][]string, n)
		for i := range ri.Replicas {
			if m := r.Count(); m > 0 {
				ri.Replicas[i] = make([]string, m)
				for j := range ri.Replicas[i] {
					ri.Replicas[i][j] = string(r.Bytes())
				}
			}
		}
	}
	return ri
}

package nameserver

// Native fuzz targets for the binary wire codec. The decoder's contract
// under fuzzing: arbitrary bytes never panic it and never read past the
// frame, and any bytes it accepts decode to a value whose re-encoding is
// stable (encode→decode→encode is a fixed point). A decoded request whose
// names are not canonical is one the send check must refuse. CI runs each
// target briefly on every push; `go test -fuzz FuzzBinaryRequest
// ./internal/nameserver` explores further.

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"

	"namecoherence/internal/core"
)

func FuzzBinaryRequest(f *testing.F) {
	req := populated()["request"].(request)
	f.Add(appendRequest(nil, &req))
	f.Add(appendRequest(nil, &request{ID: 1}))
	f.Add(appendRequest(nil, &request{ID: 2, Paths: []core.Path{{"a"}, {}, {"b", "c"}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16)) // maximal varints
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc workerScratch
		var req request
		if err := parseRequest(data, &req, &sc); err != nil {
			return // rejected input is fine; panicking or over-reading is not
		}
		body := appendRequest(nil, &req)
		var again request
		var sc2 workerScratch
		if err := parseRequest(body, &again, &sc2); err != nil {
			t.Fatalf("re-encoded accepted request failed to parse: %v\n body %x", err, body)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("request round trip not a fixed point:\n first  %#v\n second %#v", req, again)
		}
		if stable := appendRequest(nil, &again); !bytes.Equal(body, stable) {
			t.Fatalf("request re-encode not byte-stable:\n %x\n %x", body, stable)
		}
		if err := req.checkCanonical(); canonicalByText(&req) != (err == nil) {
			t.Fatalf("send check on %#v: %v, but canonical by text: %v", req, err, canonicalByText(&req))
		} else if err != nil && !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("send check refused %#v with %v, want ErrNotCanonical", req, err)
		}
	})
}

// canonicalByText states what the send check enforces without using it:
// every path a request carries survives a render and re-parse unchanged
// (no component is empty or holds the separator), a resolve — and every
// element of a batch — names something, and a mutation's Name parses as
// exactly itself.
func canonicalByText(req *request) bool {
	same := func(p core.Path) bool { return core.ParsePath(p.String()).Equal(p) }
	resolve := req.Op == opNone && !req.Routes && !req.Subscribe && len(req.Paths) == 0
	if !same(req.Path) || resolve && len(req.Path) == 0 {
		return false
	}
	for _, p := range req.Paths {
		if len(p) == 0 || !same(p) {
			return false
		}
	}
	return req.Op == opNone || core.ParsePath(req.Name).Equal(core.Path{core.Name(req.Name)})
}

func FuzzBinaryResponse(f *testing.F) {
	resp := populated()["response"].(response)
	f.Add(appendResponse(nil, &resp))
	f.Add(appendResponse(nil, &response{ID: 1, Rev: 9}))
	f.Add(appendResponse(nil, &response{ID: 0, Invalidation: true}))
	f.Add(appendResponse(nil, &response{Rev: 7, Invalidation: true, Dir: 3, Name: "v07"})) // a frame that names its binding
	f.Add(appendResponse(nil, &response{ID: 3, Ent: 12, Kind: 2, Rev: 7, Dir: 1 << 40}))   // a resolve that says where
	f.Add(appendResponse(nil, &response{ID: 4, Rev: 7, Results: []result{{ID: 1, Kind: 2, Dir: 9}, {Err: "missing"}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 12)) // non-terminating varint
	f.Add(overcounted(64))                // a batch count its bytes cannot hold
	f.Fuzz(func(t *testing.T, data []byte) {
		var errs strIntern
		var resp response
		if err := parseResponse(data, &resp, &errs); err != nil {
			return
		}
		body := appendResponse(nil, &resp)
		var again response
		if err := parseResponse(body, &again, &errs); err != nil {
			t.Fatalf("re-encoded accepted response failed to parse: %v\n body %x", err, body)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("response round trip not a fixed point:\n first  %#v\n second %#v", resp, again)
		}
		if stable := appendResponse(nil, &again); !bytes.Equal(body, stable) {
			t.Fatalf("response re-encode not byte-stable:\n %x\n %x", body, stable)
		}
	})
}

// FuzzBinaryFrame drives the frame layer: a length prefix plus arbitrary
// body bytes. readFrame must never panic, never hand back more bytes
// than the stream held, and must enforce the frame size bound. And
// frameBuffered, which lets a leader go on dispatching without a read,
// must never claim a frame is buffered when readFrame would need another
// read to return it.
func FuzzBinaryFrame(f *testing.F) {
	req := populated()["request"].(request)
	var framed bytes.Buffer
	bw := bufio.NewWriter(&framed)
	if err := writeFrame(bw, appendRequest(nil, &req)); err != nil {
		f.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	framed.Reset()
	if err := writeFrame(bw, appendResponse(nil, &response{Rev: 7, Invalidation: true, Dir: 3, Name: "v07"})); err != nil {
		f.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(framed.Bytes()))                  // a push frame that names its binding
	f.Add([]byte{0})                                    // empty frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})         // length far past maxFrame
	f.Add(append([]byte{0x02, 0xAA, 0xBB, 0x03}, 0xCC)) // a frame, then part of the next
	f.Fuzz(func(t *testing.T, data []byte) {
		// One read brings in the first bufio buffer's worth; a second read
		// is a failure frameBuffered said would not happen.
		br := bufio.NewReader(&oneRead{data: data})
		_, _ = br.Peek(1)
		for frameBuffered(br) {
			var buf []byte
			if _, err := readFrame(br, &buf); err != nil {
				t.Fatalf("frameBuffered said a frame was buffered, readFrame failed: %v", err)
			}
		}

		var buf []byte
		body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf)
		if err != nil {
			return
		}
		if len(body) > len(data) {
			t.Fatalf("readFrame returned %d bytes from a %d-byte stream", len(body), len(data))
		}
		if len(body) > maxFrame {
			t.Fatalf("readFrame accepted a %d-byte frame past the %d bound", len(body), maxFrame)
		}
	})
}

// oneRead yields its data in a single Read, then fails every Read after.
type oneRead struct {
	data []byte
	done bool
}

func (r *oneRead) Read(p []byte) (int, error) {
	if r.done {
		return 0, errSecondRead
	}
	r.done = true
	return copy(p, r.data), nil
}

var errSecondRead = errors.New("a second read of the stream")

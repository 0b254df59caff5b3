package nameserver

// Unit tests for the hand-rolled binary wire codec: byte-stable encoding,
// nil-for-empty collapse, dirty-scratch overwrite semantics, and hard
// errors (never panics) on malformed input. TestWireRoundTrip (wire_test.go)
// holds every field of every wire type to decode(encode(v)) == v, and the
// fuzz targets in fuzz_test.go extend the malformed cases to arbitrary
// bytes.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"namecoherence/internal/core"
)

// binaryRoundTrip encodes a request or response with the binary codec and
// decodes it back, returning the decoded value. Fails the test on any
// codec error.
func binaryRoundTrip(t *testing.T, v any) any {
	t.Helper()
	switch v := v.(type) {
	case request:
		var out request
		var sc workerScratch
		if err := parseRequest(appendRequest(nil, &v), &out, &sc); err != nil {
			t.Fatalf("parseRequest: %v", err)
		}
		return out
	case response:
		var out response
		var errs strIntern
		if err := parseResponse(appendResponse(nil, &v), &out, &errs); err != nil {
			t.Fatalf("parseResponse: %v", err)
		}
		return out
	default:
		t.Fatalf("%T is not a message: clients send requests, servers send responses", v)
		return nil
	}
}

// TestBinaryByteStable requires encoding to be deterministic — the same
// value always yields the same bytes (RouteInfo's Prefixes map is the
// hazard: its pairs are emitted in sorted key order) — and idempotent
// across a round trip: re-encoding a decoded value reproduces the
// original frame byte-for-byte.
func TestBinaryByteStable(t *testing.T) {
	req := populated()["request"].(request)
	resp := populated()["response"].(response)
	ri := populated()["RouteInfo"].(RouteInfo)

	first := appendRouteInfo(nil, &ri)
	for i := 0; i < 16; i++ {
		if again := appendRouteInfo(nil, &ri); !bytes.Equal(first, again) {
			t.Fatalf("RouteInfo encoding is not deterministic:\n %x\n %x", first, again)
		}
	}

	reqBody := appendRequest(nil, &req)
	decReq := binaryRoundTrip(t, req).(request)
	if again := appendRequest(nil, &decReq); !bytes.Equal(reqBody, again) {
		t.Errorf("request re-encode differs:\n %x\n %x", reqBody, again)
	}
	respBody := appendResponse(nil, &resp)
	decResp := binaryRoundTrip(t, resp).(response)
	if again := appendResponse(nil, &decResp); !bytes.Equal(respBody, again) {
		t.Errorf("response re-encode differs:\n %x\n %x", respBody, again)
	}
}

// TestBinaryNilEmptyCollapse pins the codec's nil-for-empty rule:
// empty-but-non-nil collections encode as count zero and decode as nil.
// The protocol depends on this only in one place — a non-empty req.Paths
// discriminates a batch — and an empty batch never leaves a client: it is
// a resolve of the empty path, which the send check refuses.
func TestBinaryNilEmptyCollapse(t *testing.T) {
	in := request{ID: 5, Path: core.Path{}, Paths: []core.Path{}}
	out := binaryRoundTrip(t, in).(request)
	if out.Path != nil || out.Paths != nil {
		t.Errorf("empty collections decoded non-nil: %#v", out)
	}
	if out.ID != 5 {
		t.Errorf("ID = %d, want 5", out.ID)
	}
}

// TestBinaryDirtyScratchOverwrite parses frames into already-used
// destinations — the steady-state shape on both ends, where req and resp
// live in reused scratch — and requires every field of the previous
// message to be overwritten. The binary parsers assign all fields
// unconditionally instead of zeroing first; this holds them to it.
func TestBinaryDirtyScratchOverwrite(t *testing.T) {
	var sc workerScratch
	full := populated()["request"].(request)
	var req request
	if err := parseRequest(appendRequest(nil, &full), &req, &sc); err != nil {
		t.Fatal(err)
	}
	empty := request{ID: 1}
	if err := parseRequest(appendRequest(nil, &empty), &req, &sc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, empty) {
		t.Errorf("stale fields leaked through reused request scratch:\n got  %#v\n want %#v", req, empty)
	}

	// A shrinking batch must not resurrect components from the larger
	// batch that previously occupied the scratch's inner slices.
	big := request{ID: 2, Paths: []core.Path{{"a", "b", "c"}, {"d", "e"}, {"f"}}}
	if err := parseRequest(appendRequest(nil, &big), &req, &sc); err != nil {
		t.Fatal(err)
	}
	small := request{ID: 3, Paths: []core.Path{{"x"}, {"y", "z"}}}
	if err := parseRequest(appendRequest(nil, &small), &req, &sc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, small) {
		t.Errorf("batch scratch reuse corrupted a smaller batch:\n got  %#v\n want %#v", req, small)
	}

	fullResp := populated()["response"].(response)
	var resp response
	var errs strIntern
	if err := parseResponse(appendResponse(nil, &fullResp), &resp, &errs); err != nil {
		t.Fatal(err)
	}
	emptyResp := response{ID: 9}
	if err := parseResponse(appendResponse(nil, &emptyResp), &resp, &errs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, emptyResp) {
		t.Errorf("stale fields leaked through reused response scratch:\n got  %#v\n want %#v", resp, emptyResp)
	}
}

// TestBinaryErrInterning verifies that repeated sentinel error strings
// decode to the same backing string (one conversion, then map hits): the
// client sees the common failures — not found, not mine — over and over,
// and interning keeps their decode allocation-free.
func TestBinaryErrInterning(t *testing.T) {
	var errs strIntern
	body := appendResponse(nil, &response{ID: 1, Err: "no such name"})
	var a, b response
	if err := parseResponse(body, &a, &errs); err != nil {
		t.Fatal(err)
	}
	if err := parseResponse(body, &b, &errs); err != nil {
		t.Fatal(err)
	}
	if a.Err != "no such name" || b.Err != "no such name" {
		t.Fatalf("Err decoded as %q / %q", a.Err, b.Err)
	}
	// Same backing storage, not merely equal contents.
	if unsafe.StringData(a.Err) != unsafe.StringData(b.Err) {
		t.Error("repeated sentinel error was not interned to one backing string")
	}
}

// TestBinaryMalformed feeds the parsers systematically damaged frames:
// every strict prefix of a valid body (truncation at each byte), a valid
// body with trailing garbage, an out-of-range bool, and a collection
// count larger than the frame. All must return an error; none may panic
// or read past the frame.
func TestBinaryMalformed(t *testing.T) {
	req := populated()["request"].(request)
	resp := populated()["response"].(response)
	reqBody := appendRequest(nil, &req)
	respBody := appendResponse(nil, &resp)

	var sc workerScratch
	var errs strIntern
	for i := 0; i < len(reqBody); i++ {
		var out request
		if err := parseRequest(reqBody[:i], &out, &sc); err == nil {
			t.Fatalf("request truncated to %d/%d bytes parsed without error", i, len(reqBody))
		}
	}
	for i := 0; i < len(respBody); i++ {
		var out response
		if err := parseResponse(respBody[:i], &out, &errs); err == nil {
			t.Fatalf("response truncated to %d/%d bytes parsed without error", i, len(respBody))
		}
	}

	var out request
	trailing := append(append([]byte(nil), reqBody...), 0xFF)
	if err := parseRequest(trailing, &out, &sc); err == nil {
		t.Error("trailing byte after request parsed without error")
	}

	// Bool bytes are strict 0/1: a two is a protocol error, not truthy.
	badBool := binary.AppendUvarint(nil, 1) // ID
	badBool = binary.AppendUvarint(badBool, 0)
	badBool = binary.AppendUvarint(badBool, 0)
	badBool = append(badBool, 2) // Routes
	var out2 request
	if err := parseRequest(badBool, &out2, &sc); err == nil {
		t.Error("out-of-range bool byte parsed without error")
	}

	// A count claiming 2^40 elements in a 12-byte frame must be rejected
	// up front, not attempted.
	bomb := binary.AppendUvarint(nil, 1)             // ID
	bomb = binary.AppendUvarint(bomb, uint64(1)<<40) // Path count
	var out3 request
	if err := parseRequest(bomb, &out3, &sc); err == nil {
		t.Error("count exceeding the frame parsed without error")
	}
}

// overcounted returns a response body of at most size bytes (exactly
// maxFrame for maxFrame) whose batch count claims one result per byte
// after it, four times what those bytes can hold (a result takes at least
// 4), so it must fail to parse. ID, Ent, Kind, Rev and Err are zero.
func overcounted(size int) []byte {
	n := size - 5 - 3 // a three-byte count
	return append(binary.AppendUvarint(make([]byte, 5), uint64(n)), make([]byte, n)...)
}

// TestOvercountedBatchAllocation: a maxFrame response whose count claims
// more results than its bytes can hold fails to parse, having allocated no
// more than the maxFrame/4 results the bytes could hold, not the count's
// worth.
func TestOvercountedBatchAllocation(t *testing.T) {
	body := overcounted(maxFrame)
	var resp response
	var errs strIntern
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := parseResponse(body, &resp, &errs)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a response counting more results than its bytes hold parsed")
	}
	bound := uint64(maxFrame/4)*uint64(unsafe.Sizeof(result{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("parsing a %d-byte overcounted response allocated %d bytes, want ≤ %d (maxFrame/4 results)", len(body), got, bound)
	}
}

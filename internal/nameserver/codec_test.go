package nameserver

// Unit tests for the hand-rolled binary wire codec: agreement with gob
// field-for-field on every registered wire type, byte-stable encoding,
// dirty-scratch overwrite semantics, and hard errors (never panics) on
// malformed input. The fuzz target in fuzz_test.go extends the malformed
// cases to arbitrary bytes.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"
	"unsafe"

	"namecoherence/internal/varenc"
)

// binaryRoundTrip encodes v with the binary codec and decodes it back,
// returning the decoded value. Fails the test on any codec error.
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
	case result:
		r := varenc.NewReader(appendResult(nil, &v))
		var out result
		var errs strIntern
		parseResult(&r, &out, &errs)
		if err := r.End(); err != nil {
			t.Fatalf("parseResult: %v", err)
		}
		return out
	case response:
		var out response
		var errs strIntern
		if err := parseResponse(appendResponse(nil, &v), &out, &errs); err != nil {
			t.Fatalf("parseResponse: %v", err)
		}
		return out
	case RouteInfo:
		r := varenc.NewReader(appendRouteInfo(nil, &v))
		out := parseRouteInfo(&r)
		if err := r.End(); err != nil {
			t.Fatalf("parseRouteInfo: %v", err)
		}
		return *out
	default:
		t.Fatalf("no binary round-trip case for %T — add one when extending the wire set", v)
		return nil
	}
}

// gobRoundTrip encodes v with gob and decodes it back.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := gob.NewDecoder(&buf).Decode(out.Interface()); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out.Elem().Interface()
}

// TestBinaryGobAgreement decodes every registered wire type through both
// codecs and requires identical results. Both codecs collapse empty
// collections to nil (gob by zero-omission, the binary codec by decoding
// count zero as nil), so the decoded values — not the inputs — are the
// comparable pair. The registry sweep makes a new wire type without a
// binary case a test failure, mirroring registrycheck's static rule.
func TestBinaryGobAgreement(t *testing.T) {
	values := populated()
	for name := range wireTypes {
		if _, ok := values[name]; !ok {
			t.Fatalf("wire type %q has no populated test value", name)
		}
	}
	for name, v := range values {
		viaGob := gobRoundTrip(t, v)
		viaBinary := binaryRoundTrip(t, v)
		if !reflect.DeepEqual(viaGob, viaBinary) {
			t.Errorf("%s: codecs disagree:\n gob    %#v\n binary %#v", name, viaGob, viaBinary)
		}
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

// TestBinaryNilEmptyCollapse pins the codec's zero-omission parity with
// gob: empty-but-non-nil collections encode as count zero and decode as
// nil. The protocol depends on this only in one place — req.Paths != nil
// discriminates a batch — and clients never send an empty non-nil batch.
func TestBinaryNilEmptyCollapse(t *testing.T) {
	in := request{ID: 5, Path: []string{}, Paths: [][]string{}}
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
	big := request{ID: 2, Paths: [][]string{{"a", "b", "c"}, {"d", "e"}, {"f"}}}
	if err := parseRequest(appendRequest(nil, &big), &req, &sc); err != nil {
		t.Fatal(err)
	}
	small := request{ID: 3, Paths: [][]string{{"x"}, {"y", "z"}}}
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

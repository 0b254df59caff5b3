// Package recall reproduces the shape of the allocation allocfree caught
// on the name server's annotated serve path (its respond), beside the form
// it was fixed to. The buggy line must keep firing and the fixed form must stay
// silent.
package recall

import (
	"bufio"
	"encoding/json"
)

type response struct {
	ID  uint64
	Rev uint64
}

type connState struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// serveRequests is the server's steady path: decode, resolve, respond.
//
//namingvet:allocfree
func serveRequests(st *connState, resp *response) {
	resp.Rev++
	respond(st, resp)
}

// Server.respond, as first annotated: the codec's encode allocates, and nothing exempted
// it, so the annotated serve loop reached an allocation on every answer.
func respond(st *connState, resp *response) {
	_ = st.enc.Encode(resp) // want `serveRequests is marked //namingvet:allocfree but its call chain serveRequests → respond allocates here`
	_ = st.bw.Flush()
}

// serveRequestsFixed is the same steady path over the fixed respond.
//
//namingvet:allocfree
func serveRequestsFixed(st *connState, resp *response) {
	resp.Rev++
	respondFixed(st, resp)
}

// Fixed: the encode is a named, exempted cost until a codec that writes
// into a reused buffer replaces it.
func respondFixed(st *connState, resp *response) {
	//namingvet:allocfree-exempt -- the codec's encode allocates until the binary codec lands
	_ = st.enc.Encode(resp)
	_ = st.bw.Flush()
}

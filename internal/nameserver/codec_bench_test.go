package nameserver

// Codec micro-benchmarks: one encode+decode cycle per op for the typical
// steady-path messages, with no transport underneath.
// BenchmarkNameServerRoundTrip (root package) measures the same work
// end-to-end, where transport synchronization dominates; this pair is
// where the codec itself is visible.

import (
	"testing"

	"namecoherence/internal/core"
)

// codecBenchMessages returns the steady-path message pair: a depth-3
// resolve request and its successful response (mirrors the round-trip
// benchmark's workload).
func codecBenchMessages() (request, response) {
	return request{ID: 7, Path: core.Path{"usr", "bin", "ls"}},
		response{ID: 7, Ent: 42, Kind: 1, Rev: 9}
}

func BenchmarkWireCodec(b *testing.B) {
	req, resp := codecBenchMessages()

	b.Run("request/binary", func(b *testing.B) {
		var buf []byte
		var sc workerScratch
		var out request
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendRequest(buf[:0], &req)
			if err := parseRequest(buf, &out, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response/binary", func(b *testing.B) {
		var buf []byte
		var errs strIntern
		var out response
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], &resp)
			if err := parseResponse(buf, &out, &errs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package analysis

import (
	"reflect"
	"testing"
)

// TestFactsRoundTrip: a summary table with lock facts survives the .vetx
// encoding, and a payload written by the previous facts version decodes
// to "no facts" rather than to a table whose shape it does not have.
func TestFactsRoundTrip(t *testing.T) {
	want := Summaries{
		"(*namecoherence/internal/nameserver.Server).Bind": {
			AcquiresLocks: map[string]LockAcq{
				"(*nameserver.Server).mu":    {Write: true, Via: "(*nameserver.Server).Bind acquires (*nameserver.Server).mu (server.go:10)"},
				"(*nameserver.commitLog).mu": {},
			},
			LockEdges: []LockEdge{
				{Held: "(*nameserver.Server).mu", Acq: "(*nameserver.commitLog).mu", Via: "(*nameserver.Server).Bind holds (*nameserver.Server).mu and calls append (server.go:12)"},
			},
			MayPark: true,
			ParkVia: "channel send (commitlog.go:40)",
		},
		"namecoherence/internal/nameserver.dial": {ConnIO: true, UnguardedIO: true},
	}
	data, err := EncodeFacts(want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := DecodeFacts(data)
	if !ok {
		t.Fatalf("DecodeFacts(EncodeFacts(table)) = no facts; payload %q", data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the table:\n got %+v\nwant %+v", got, want)
	}

	v4 := []byte("namingvet-facts-v4\n" + `[{"Key":"namecoherence/internal/nameserver.dial","Summary":{"ConnIO":true}}]`)
	if s, ok := DecodeFacts(v4); ok {
		t.Fatalf("a v4 payload decoded to %v; want no facts", s)
	}
}

package snapstore

import (
	"errors"
	"reflect"
	"testing"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
)

// FuzzDecodeNode holds the node decoder to the wire decoder's contract:
// blobs come back from disk, so arbitrary bytes must never panic it or
// make it read past the input, every refusal wraps ErrTruncated, and a
// blob it accepts decodes, re-encodes and decodes again to an equal Node.
func FuzzDecodeNode(f *testing.F) {
	for _, n := range []*Node{
		{Kind: KindDir, EntityKind: core.KindObject, Entries: []Entry{
			{Name: "up", Ref: Ref{IsCycle: true, Cycle: 1}},
			{Name: "leaf", Ref: Ref{Hash: cas.Sum([]byte("leaf"))}},
		}},
		{Kind: KindFile, Content: "body", Embedded: []core.Path{core.ParsePath("lib/x"), core.PathOf("y")}},
		{Kind: KindOpaque, EntityKind: core.KindActivity, Label: "proc"},
	} {
		f.Add(n.Encode())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		n, err := DecodeNode(blob)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("refusal %v does not wrap ErrTruncated", err)
			}
			return
		}
		// Encode sorts n's entries in place; the comparison is against that.
		again, err := DecodeNode(n.Encode())
		if err != nil {
			t.Fatalf("re-encoded node refused: %v", err)
		}
		if !reflect.DeepEqual(n, again) {
			t.Fatalf("round trip changed the node:\n first  %#v\n again  %#v", n, again)
		}
	})
}

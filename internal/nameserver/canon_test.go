package nameserver

import (
	"errors"
	"strings"
	"testing"

	"namecoherence/internal/core"
)

func TestCanonicalWirePath(t *testing.T) {
	if err := CheckWireCanonical(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	bad := []core.Path{
		{},                // empty: names the peer's export root, whatever that is
		{"usr", ""},       // empty component
		{"usr", "bin/ls"}, // separator smuggled inside a component
		{"usr/bin", "ls"}, // ditto, first component
	}
	for _, p := range bad {
		if err := CheckWireCanonical(p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("CheckWireCanonical(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
}

// FuzzWireKey holds AppendWireKey to the two functions its one pass
// replaces: it fails iff CheckWireCanonical fails, with the same error text;
// on success it appends exactly p.String(); and the bytes already in the
// buffer are left as they were either way. raw decodes to a path by
// splitting on NUL, so components can be empty or hold separators and
// multi-byte runes; the empty input is the empty path.
func FuzzWireKey(f *testing.F) {
	f.Add("", []byte("usr\x00bin\x00ls"))
	f.Add("k:", []byte(""))
	f.Add("k:", []byte("\x00"))
	f.Add("", []byte("usr\x00\x00ls"))
	f.Add("prefix", []byte("usr\x00bin/ls"))
	f.Add("", []byte("usr/bin\x00ls"))
	f.Add("/", []byte("/"))
	f.Add("é", []byte("naïve\x00日本語\x00∕slash-lookalike"))
	f.Add("", []byte(strings.Repeat("x", 40)+"\x00y"))
	f.Fuzz(func(t *testing.T, prefix string, raw []byte) {
		var p core.Path
		if len(raw) > 0 {
			for _, part := range strings.Split(string(raw), "\x00") {
				p = append(p, core.Name(part))
			}
		}
		b := append(make([]byte, 0, len(prefix)), prefix...)
		got, err := AppendWireKey(b, p)
		want := CheckWireCanonical(p)
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("AppendWireKey(%q) err = %v, CheckWireCanonical err = %v", p, err, want)
		}
		if string(got[:min(len(got), len(prefix))]) != prefix {
			t.Fatalf("AppendWireKey(%q) overwrote the prefix %q: %q", p, prefix, got)
		}
		if err != nil {
			if !errors.Is(err, ErrNotCanonical) || string(got) != prefix {
				t.Fatalf("AppendWireKey(%q) failed with %v leaving %q; want ErrNotCanonical and %q", p, err, got, prefix)
			}
			return
		}
		if key := string(got[len(prefix):]); key != p.String() {
			t.Fatalf("AppendWireKey(%q) appended %q, p.String() = %q", p, key, p.String())
		}
	})
}

// TestClientRejectsNonCanonical pins the client-side half of §6: a
// non-canonical name fails before anything crosses the wire.
func TestClientRejectsNonCanonical(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	for _, p := range []core.Path{{}, {"usr", "bin/ls"}, {"usr", ""}} {
		if _, err := c.Resolve(p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("Resolve(%q) err = %v, want ErrNotCanonical", p, err)
		}
		if _, _, _, err := c.ResolveRev(p); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("ResolveRev(%q) err = %v, want ErrNotCanonical", p, err)
		}
		if _, _, err := c.ResolveBatchRev([]core.Path{p}); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("ResolveBatchRev(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
	if n := s.Metrics().Served; n != 0 {
		t.Fatalf("Served = %d after local rejections, want 0", n)
	}
}

// TestBatchNonCanonicalSlots pins per-slot failure: bad names fail in
// their result slots, good names still resolve, and only the good ones
// cross the wire.
func TestBatchNonCanonicalSlots(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	paths := []core.Path{
		core.ParsePath("usr/bin/ls"),
		{"usr", "bin/ls"},
		{},
	}
	out, err := c.ResolveBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Entity != f {
		t.Fatalf("good slot = (%v, %v), want (%v, nil)", out[0].Entity, out[0].Err, f)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(out[i].Err, ErrNotCanonical) {
			t.Fatalf("slot %d err = %v, want ErrNotCanonical", i, out[i].Err)
		}
	}
	if n := s.Metrics().Served; n != 1 {
		t.Fatalf("Served = %d, want 1 (only the canonical name crosses)", n)
	}
}

// TestServerRevalidatesWirePaths bypasses the client and frames by hand:
// the server must reject non-canonical paths itself (§6 — coherence is
// checked where the name is used, not only where it was made).
func TestServerRevalidatesWirePaths(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	r, _ := rawPipe(t, s)

	for _, raw := range []core.Path{{"usr", "bin/ls"}, {"usr", ""}, nil} {
		r.send(request{ID: 1, Path: raw})
		if resp := r.recv(); !strings.Contains(resp.Err, "not wire-canonical") {
			t.Fatalf("handcrafted request %q: Err = %q, want wire-canonical rejection", raw, resp.Err)
		}
	}

	// A batch gets per-result rejections; the good element still resolves.
	r.send(request{ID: 2, Paths: []core.Path{{"usr", "bin", "ls"}, {"usr", "bin/ls"}}})
	resp := r.recv()
	if len(resp.Results) != 2 {
		t.Fatalf("Results = %d, want 2", len(resp.Results))
	}
	if resp.Results[0].Err != "" {
		t.Fatalf("canonical batch element failed: %q", resp.Results[0].Err)
	}
	if !strings.Contains(resp.Results[1].Err, "not wire-canonical") {
		t.Fatalf("non-canonical batch element: Err = %q, want wire-canonical rejection", resp.Results[1].Err)
	}
}

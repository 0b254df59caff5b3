package dirtree

import (
	"fmt"
	"math/rand"
	"testing"

	"namecoherence/internal/core"
)

// randomTreeOps drives a tree through a random operation sequence while
// maintaining a shadow model (path string → entity) and checking the
// invariants after every step:
//
//  1. every live shadow path resolves to the recorded entity;
//  2. Walk visits exactly the live shadow paths;
//  3. removed paths no longer resolve.
func TestRandomTreeOpsInvariants(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := core.NewWorld()
			tr := New(w, "root")

			shadowFiles := make(map[string]core.Entity)
			shadowDirs := make(map[string]core.Entity)
			var dirPaths []string // "" = root

			dirAt := func(s string) core.Path { return core.ParsePath(s) }
			dirPaths = append(dirPaths, "")

			check := func(step int) {
				t.Helper()
				for p, want := range shadowFiles {
					got, err := tr.Lookup(core.ParsePath(p))
					if err != nil || got != want {
						t.Fatalf("step %d: file %q = %v (%v), want %v", step, p, got, err, want)
					}
				}
				for p, want := range shadowDirs {
					if p == "" {
						continue
					}
					got, err := tr.Lookup(core.ParsePath(p))
					if err != nil || got != want {
						t.Fatalf("step %d: dir %q = %v (%v), want %v", step, p, got, err, want)
					}
				}
				visited := make(map[string]bool)
				tr.Walk(func(p core.Path, e core.Entity) bool {
					visited[p.String()] = true
					return true
				})
				for p := range shadowFiles {
					if !visited[p] {
						t.Fatalf("step %d: Walk missed file %q", step, p)
					}
				}
				for p := range shadowDirs {
					if p != "" && !visited[p] {
						t.Fatalf("step %d: Walk missed dir %q", step, p)
					}
				}
				if len(visited) != len(shadowFiles)+len(shadowDirs)-1 {
					t.Fatalf("step %d: Walk visited %d, want %d",
						step, len(visited), len(shadowFiles)+len(shadowDirs)-1)
				}
			}
			shadowDirs[""] = tr.Root

			for step := 0; step < 120; step++ {
				parent := dirPaths[rng.Intn(len(dirPaths))]
				name := fmt.Sprintf("e%03d", step)
				child := name
				if parent != "" {
					child = parent + "/" + name
				}
				switch rng.Intn(3) {
				case 0: // mkdir
					d, err := tr.MkdirAll(dirAt(child))
					if err != nil {
						t.Fatalf("step %d mkdir: %v", step, err)
					}
					shadowDirs[child] = d
					dirPaths = append(dirPaths, child)
				case 1: // create file
					f, err := tr.Create(core.ParsePath(child), "x")
					if err != nil {
						t.Fatalf("step %d create: %v", step, err)
					}
					shadowFiles[child] = f
				case 2: // detach a random file (if any)
					for p := range shadowFiles {
						pp := core.ParsePath(p)
						if err := tr.Detach(pp[:len(pp)-1], pp[len(pp)-1]); err != nil {
							t.Fatalf("step %d detach %q: %v", step, p, err)
						}
						delete(shadowFiles, p)
						break
					}
				}
				check(step)
			}
		})
	}
}

// Moving a subtree preserves every interior entity: the set of (relative
// path, entity) pairs under the subtree is identical before and after.
func TestMovePreservesSubtreeMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := core.NewWorld()
	tr := New(w, "root")

	// Random subtree under src/.
	if _, err := tr.MkdirAll(core.PathOf("src")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		depth := 1 + rng.Intn(3)
		p := core.PathOf("src")
		for d := 0; d < depth; d++ {
			p = p.Append(core.Name(fmt.Sprintf("d%d_%d", i, d)))
		}
		if _, err := tr.Create(p, "x"); err != nil {
			t.Fatal(err)
		}
	}

	collect := func(prefix core.Path) map[string]core.Entity {
		out := make(map[string]core.Entity)
		tr.Walk(func(p core.Path, e core.Entity) bool {
			if p.HasPrefix(prefix) && len(p) > len(prefix) {
				out[p[len(prefix):].String()] = e
			}
			return true
		})
		return out
	}

	before := collect(core.PathOf("src"))
	if _, err := tr.MkdirAll(core.PathOf("dst")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.PathOf("src"), core.ParsePath("dst/moved")); err != nil {
		t.Fatal(err)
	}
	after := collect(core.ParsePath("dst/moved"))

	if len(before) != len(after) {
		t.Fatalf("subtree size changed: %d -> %d", len(before), len(after))
	}
	for p, e := range before {
		if after[p] != e {
			t.Fatalf("entity at %q changed: %v -> %v", p, e, after[p])
		}
	}
}

// Copying a subtree preserves its shape and contents while giving every
// interior node a fresh identity.
func TestCopyPreservesShapeFreshIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := core.NewWorld()
	tr := New(w, "root")
	if _, err := tr.MkdirAll(core.PathOf("src")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		depth := 1 + rng.Intn(3)
		p := core.PathOf("src")
		for d := 0; d < depth; d++ {
			p = p.Append(core.Name(fmt.Sprintf("c%d_%d", i, d)))
		}
		if _, err := tr.Create(p, fmt.Sprintf("content-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.CopySubtree(core.PathOf("src"), core.PathOf("dup")); err != nil {
		t.Fatal(err)
	}

	collect := func(prefix core.Path) map[string]core.Entity {
		out := make(map[string]core.Entity)
		tr.Walk(func(p core.Path, e core.Entity) bool {
			if p.HasPrefix(prefix) && len(p) > len(prefix) {
				out[p[len(prefix):].String()] = e
			}
			return true
		})
		return out
	}
	orig := collect(core.PathOf("src"))
	dup := collect(core.PathOf("dup"))
	if len(orig) != len(dup) {
		t.Fatalf("shape differs: %d vs %d", len(orig), len(dup))
	}
	for p, e := range orig {
		d, ok := dup[p]
		if !ok {
			t.Fatalf("copy missing %q", p)
		}
		if d == e {
			t.Fatalf("copy shares identity at %q", p)
		}
		// File payloads must match.
		if data, err := tr.File(e); err == nil {
			dupData, err := tr.File(d)
			if err != nil {
				t.Fatalf("copy at %q is not a file", p)
			}
			if dupData.Content != data.Content {
				t.Fatalf("content differs at %q", p)
			}
		}
	}
}

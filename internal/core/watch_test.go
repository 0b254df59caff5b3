package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWatchedContextNotifies(t *testing.T) {
	w := NewWorld()
	e := w.NewObject("e")
	var gotName Name
	var gotEnt Entity
	calls := 0
	c := NewContext()
	if IsWatched(c) {
		t.Fatal("fresh context reports watched")
	}
	dir := w.NewObject("dir")
	var gotOld Entity
	if !c.SetWatch(dir, func(ch Change) {
		if ch.Dir != dir {
			t.Errorf("hook told dir %v, installed for %v", ch.Dir, dir)
		}
		gotName, gotOld, gotEnt = ch.Name, ch.Old, ch.New
		calls++
	}) {
		t.Fatal("SetWatch on an unwatched context reported false")
	}
	if !IsWatched(c) {
		t.Fatal("IsWatched false after SetWatch")
	}

	c.Bind("x", e)
	if calls != 1 || gotName != "x" || gotEnt != e || !gotOld.IsUndefined() {
		t.Fatalf("after bind: calls=%d name=%q old=%v new=%v", calls, gotName, gotOld, gotEnt)
	}
	if c.Lookup("x") != e || len(c.Names()) != 1 {
		t.Fatal("watched context lost its binding")
	}
	c.Unbind("x")
	if calls != 2 || !gotEnt.IsUndefined() || gotOld != e {
		t.Fatalf("after unbind: calls=%d old=%v new=%v", calls, gotOld, gotEnt)
	}
	// A no-op unbind still reports, as a transition from nothing to nothing.
	c.Unbind("x")
	if calls != 3 || !gotEnt.IsUndefined() || !gotOld.IsUndefined() {
		t.Fatalf("after no-op unbind: calls=%d old=%v new=%v", calls, gotOld, gotEnt)
	}
	// Bind to Undefined is an unbind and reports as one; a rebind reports
	// the binding it replaced.
	other := w.NewObject("other")
	c.Bind("x", e)
	c.Bind("x", other)
	if calls != 5 || gotOld != e || gotEnt != other {
		t.Fatalf("after rebind: calls=%d old=%v new=%v", calls, gotOld, gotEnt)
	}
	c.Bind("x", Undefined)
	if calls != 6 || gotOld != other || gotName != "x" || !gotEnt.IsUndefined() {
		t.Fatalf("after bind-to-undefined: calls=%d name=%q ent=%v", calls, gotName, gotEnt)
	}
}

// The first installer wins: a second SetWatch neither replaces nor chains.
func TestSetWatchKeepsFirstHook(t *testing.T) {
	first, second := 0, 0
	c := NewContext()
	c.SetWatch(Undefined, func(Change) { first++ })
	if c.SetWatch(Undefined, func(Change) { second++ }) {
		t.Fatal("SetWatch on a watched context reported true")
	}
	if c.SetWatch(Undefined, nil) || NewContext().SetWatch(Undefined, nil) {
		t.Fatal("SetWatch(nil) reported an installed hook")
	}
	c.Unbind("absent")
	if first != 1 || second != 0 {
		t.Fatalf("first=%d second=%d, want 1 and 0", first, second)
	}
	if IsWatched(Union(c)) || IsWatched(c.Clone()) {
		t.Fatal("a union over, or a clone of, a watched context reports watched")
	}
}

// The hook runs after the mutation and outside the context's lock, so it
// sees the new binding and may read or mutate the context that fired it.
func TestWatchHookMayReenterContext(t *testing.T) {
	w := NewWorld()
	e := w.NewObject("e")
	for _, tc := range []struct {
		name string
		hook func(c *BasicContext, n Name, ent Entity)
	}{
		{"lookup", func(c *BasicContext, n Name, ent Entity) {
			if got := c.Lookup(n); got != ent {
				t.Errorf("hook saw %v for %q, want %v", got, n, ent)
			}
			c.Names()
			c.Snapshot()
		}},
		{"bind another name", func(c *BasicContext, n Name, ent Entity) {
			if n != "echo" {
				c.Bind("echo", e)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewContext()
			c.SetWatch(Undefined, func(ch Change) { tc.hook(c, ch.Name, ch.New) })
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.Bind("x", e)
				c.Unbind("x")
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("hook re-entering its context deadlocked")
			}
		})
	}
}

func TestWatchedContextResolvesNormally(t *testing.T) {
	w := NewWorld()
	dir, dirCtx := w.NewContextObject("dir")
	leaf := w.NewObject("leaf")
	dirCtx.Bind("leaf", leaf)
	dirCtx.SetWatch(dir, func(Change) {})

	root := NewContext()
	root.Bind("dir", dir)
	got, err := w.Resolve(root, ParsePath("dir/leaf"))
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf {
		t.Fatalf("got %v", got)
	}
}

func TestWatchReachable(t *testing.T) {
	w := NewWorld()
	root, rootCtx := w.NewContextObject("root")
	sub, subCtx := w.NewContextObject("sub")
	leaf := w.NewObject("leaf")
	rootCtx.Bind("sub", sub)
	subCtx.Bind("leaf", leaf)

	changes := 0
	var last Change
	watched, _ := w.WatchReachable(root, func(ch Change) { changes++; last = ch })
	if watched != 2 {
		t.Fatalf("watched = %d, want 2 (root and sub)", watched)
	}

	// Mutating either directory now notifies, through the context the
	// caller already held as much as through the World's.
	subCtx.Bind("extra", leaf)
	if want := (Change{Dir: sub, Name: "extra", New: leaf}); last != want {
		t.Fatalf("bind in sub reported %+v, want %+v", last, want)
	}
	rootWatched, _ := w.ContextOf(root)
	rootWatched.Unbind("sub")
	if want := (Change{Dir: root, Name: "sub", Old: sub}); last != want {
		t.Fatalf("unbind in root reported %+v, want %+v", last, want)
	}
	if changes != 2 {
		t.Fatalf("changes = %d, want 2", changes)
	}

	// Idempotent: nothing is watched twice, and the first hook stays. (sub
	// is now unreachable from root after the unbind, so re-watch from sub
	// directly.)
	if again, _ := w.WatchReachable(sub, func(Change) { t.Error("second hook ran") }); again != 0 {
		t.Fatalf("re-watch = %d, want 0", again)
	}
	subCtx.Unbind("extra")
	if changes != 3 {
		t.Fatalf("changes = %d after re-watch, want 3", changes)
	}
}

// A directory bound under two names is one context: it is watched once, and
// a bind reached through either name fires the hook exactly once.
func TestWatchReachableSharedDirectory(t *testing.T) {
	w := NewWorld()
	root, rootCtx := w.NewContextObject("root")
	shared, _ := w.NewContextObject("shared")
	rootCtx.Bind("a", shared)
	rootCtx.Bind("b", shared)

	changes := 0
	if watched, _ := w.WatchReachable(root, func(Change) { changes++ }); watched != 2 {
		t.Fatalf("watched = %d, want 2 (root and the shared directory once)", watched)
	}
	leaf := w.NewObject("leaf")
	for i, via := range []string{"a", "b"} {
		dir, ok := w.ContextOf(w.MustResolve(rootCtx, ParsePath(via)))
		if !ok {
			t.Fatalf("%s is not a directory", via)
		}
		dir.Bind(Name("leaf-"+via), leaf)
		if changes != i+1 {
			t.Fatalf("changes = %d after bind through %q, want %d", changes, via, i+1)
		}
	}
}

func TestWatchReachableSkipsActivitiesAndFiles(t *testing.T) {
	w := NewWorld()
	root, rootCtx := w.NewContextObject("root")
	rootCtx.Bind("act", w.NewActivity("a"))
	file := w.NewObject("f")
	if err := w.SetState(file, "payload"); err != nil {
		t.Fatal(err)
	}
	rootCtx.Bind("file", file)
	union := w.NewObject("u")
	if err := w.SetState(union, Union(NewContext())); err != nil {
		t.Fatal(err)
	}
	rootCtx.Bind("union", union)
	if watched, opaque := w.WatchReachable(root, func(Change) {}); watched != 1 || opaque != 1 {
		t.Fatalf("watched, opaque = %d, %d; want 1 (only root) and 1 (the union)", watched, opaque)
	}
}

// Resolve and State race the table growing under NewContextObject and the
// walked directories being rebound; run with -race.
func TestResolveRacesGrowthAndRebinds(t *testing.T) {
	w := NewWorld()
	_, rootCtx := w.NewContextObject("root")
	usr, usrCtx := w.NewContextObject("usr")
	bin, binCtx := w.NewContextObject("bin")
	ls := w.NewObject("ls")
	rootCtx.Bind("usr", usr)
	usrCtx.Bind("bin", bin)
	binCtx.Bind("ls", ls)
	w.WatchReachable(usr, func(Change) {})
	path := ParsePath("usr/bin/ls")

	const rounds = 2000
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(int) { // grows the table, reallocating it many times over
		e, c := w.NewContextObject("grown")
		c.Bind("self", e)
		if got, ok := w.ContextOf(e); !ok || got != Context(c) {
			t.Errorf("ContextOf(%v) = %v, %v right after creation", e, got, ok)
		}
	})
	run(func(int) { // rebinds a directory on the walked path
		usrCtx.Unbind("bin")
		usrCtx.Bind("bin", bin)
	})
	run(func(int) { // rebinds the leaf
		binCtx.Bind("ls", ls)
		binCtx.Bind("cat", ls)
		binCtx.Unbind("cat")
	})
	for r := 0; r < 2; r++ {
		run(func(int) {
			got, err := w.Resolve(rootCtx, path)
			if err == nil && got != ls {
				t.Errorf("Resolve = %v, want %v", got, ls)
			}
			if err != nil {
				var nf *NotFoundError
				if !errors.As(err, &nf) || nf.Depth != 1 {
					t.Errorf("Resolve failed with %v, want only bin unbound", err)
				}
			}
			if s := w.State(bin); s != State(binCtx) {
				t.Errorf("State(bin) = %v", s)
			}
			if s := w.State(Entity{ID: 1 << 40, Kind: KindObject}); s != nil {
				t.Errorf("State past the table = %v", s)
			}
		})
	}
	wg.Wait()
}

package core

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestContextBindLookup(t *testing.T) {
	w := NewWorld()
	f := w.NewObject("f")
	c := NewContext()

	if got := c.Lookup("x"); !got.IsUndefined() {
		t.Fatalf("unbound lookup = %v, want undefined", got)
	}
	c.Bind("x", f)
	if got := c.Lookup("x"); got != f {
		t.Fatalf("lookup after bind = %v, want %v", got, f)
	}
	c.Unbind("x")
	if got := c.Lookup("x"); !got.IsUndefined() {
		t.Fatalf("lookup after unbind = %v, want undefined", got)
	}
}

func TestContextBindUndefinedIsUnbind(t *testing.T) {
	w := NewWorld()
	f := w.NewObject("f")
	c := NewContext()
	c.Bind("x", f)
	c.Bind("x", Undefined)
	if n := len(c.Names()); n != 0 {
		t.Fatalf("%d names after binding to undefined, want 0", n)
	}
}

func TestContextNamesSorted(t *testing.T) {
	w := NewWorld()
	c := NewContext()
	for _, n := range []Name{"zebra", "apple", "mango"} {
		c.Bind(n, w.NewObject(string(n)))
	}
	got := c.Names()
	want := []Name{"apple", "mango", "zebra"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

func TestContextClone(t *testing.T) {
	w := NewWorld()
	a, b := w.NewObject("a"), w.NewObject("b")
	c := NewContext()
	c.Bind("x", a)

	d := c.Clone()
	if d.Lookup("x") != a || len(d.Names()) != 1 {
		t.Fatal("clone does not equal original")
	}
	d.Bind("x", b)
	if c.Lookup("x") != a {
		t.Fatal("mutating clone changed original")
	}
	if d.Lookup("x") != b {
		t.Fatal("clone did not take the new binding")
	}
}

func TestContextConcurrentAccess(t *testing.T) {
	w := NewWorld()
	c := NewContext()
	e := w.NewObject("e")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := Name(rune('a' + i))
			for j := 0; j < 100; j++ {
				c.Bind(n, e)
				_ = c.Lookup(n)
				_ = c.Names()
				c.Unbind(n)
			}
		}(i)
	}
	wg.Wait()
	if n := len(c.Names()); n != 0 {
		t.Fatalf("%d names left, want 0", n)
	}
}

// Property: after Bind(n, e), Lookup(n) returns e; after Unbind, undefined —
// for arbitrary interleavings expressed as bind lists.
func TestContextBindIsLastWriteWins(t *testing.T) {
	w := NewWorld()
	pool := make([]Entity, 8)
	for i := range pool {
		pool[i] = w.NewObject("o")
	}
	f := func(ops []uint8) bool {
		c := NewContext()
		shadow := make(map[Name]Entity)
		for _, op := range ops {
			n := Name(rune('a' + int(op%4)))
			e := pool[int(op/4)%len(pool)]
			if op%3 == 0 {
				c.Unbind(n)
				delete(shadow, n)
			} else {
				c.Bind(n, e)
				shadow[n] = e
			}
		}
		for _, n := range []Name{"a", "b", "c", "d"} {
			want, ok := shadow[n]
			got := c.Lookup(n)
			if ok && got != want {
				return false
			}
			if !ok && !got.IsUndefined() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

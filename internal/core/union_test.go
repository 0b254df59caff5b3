package core

import "testing"

func TestUnionLookupOrder(t *testing.T) {
	w := NewWorld()
	top, bottom := NewContext(), NewContext()
	eTop, eBottom, eOnly := w.NewObject("top"), w.NewObject("bottom"), w.NewObject("only")
	top.Bind("x", eTop)
	bottom.Bind("x", eBottom)
	bottom.Bind("y", eOnly)

	u := Union(top, bottom)
	if got := u.Lookup("x"); got != eTop {
		t.Fatalf("x = %v, want top layer's %v", got, eTop)
	}
	if got := u.Lookup("y"); got != eOnly {
		t.Fatalf("y = %v, want bottom layer's %v", got, eOnly)
	}
	if got := u.Lookup("z"); !got.IsUndefined() {
		t.Fatalf("z = %v", got)
	}
}

func TestUnionBindWritesTopLayer(t *testing.T) {
	w := NewWorld()
	top, bottom := NewContext(), NewContext()
	u := Union(top, bottom)
	e := w.NewObject("e")
	u.Bind("n", e)
	if top.Lookup("n") != e {
		t.Fatal("bind did not hit the top layer")
	}
	if !bottom.Lookup("n").IsUndefined() {
		t.Fatal("bind leaked to the bottom layer")
	}
}

func TestUnionUnbindRevealsLowerLayer(t *testing.T) {
	w := NewWorld()
	top, bottom := NewContext(), NewContext()
	eTop, eBottom := w.NewObject("top"), w.NewObject("bottom")
	top.Bind("x", eTop)
	bottom.Bind("x", eBottom)
	u := Union(top, bottom)
	u.Unbind("x")
	if got := u.Lookup("x"); got != eBottom {
		t.Fatalf("after unbind, x = %v, want lower layer's %v", got, eBottom)
	}
}

func TestUnionNamesAndLen(t *testing.T) {
	w := NewWorld()
	top, bottom := NewContext(), NewContext()
	top.Bind("b", w.NewObject("1"))
	top.Bind("a", w.NewObject("2"))
	bottom.Bind("b", w.NewObject("3"))
	bottom.Bind("c", w.NewObject("4"))
	u := Union(top, bottom)
	names := u.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
}

func TestUnionEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union() did not panic")
		}
	}()
	Union()
}

// A union context participates in compound-name resolution like any other
// context: a per-process overlay shadows one entry of an inherited tree.
func TestUnionInResolution(t *testing.T) {
	w := NewWorld()
	_, sharedCtx := w.NewContextObject("shared-root")
	bin, binCtx := w.NewContextObject("bin")
	ls := w.NewObject("ls")
	sharedCtx.Bind("bin", bin)
	binCtx.Bind("ls", ls)

	overlay := NewContext()
	myBin, myBinCtx := w.NewContextObject("my-bin")
	myLs := w.NewObject("my-ls")
	myBinCtx.Bind("ls", myLs)
	overlay.Bind("bin", myBin)

	u := Union(overlay, sharedCtx)
	got, err := w.Resolve(u, ParsePath("bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != myLs {
		t.Fatalf("overlay not consulted first: %v", got)
	}
	// Names not in the overlay fall through to the shared tree.
	overlay.Unbind("bin")
	got, err = w.Resolve(u, ParsePath("bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != ls {
		t.Fatalf("fall-through broken: %v", got)
	}
}

package treespec

import (
	"errors"
	"strings"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

const demoSpec = `
# a demo tree
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/passwd "root:0"
dir /doc/chapters
file /doc/chapters/ch1 "chapter one"
file /doc/main "title"
embed /doc/main "chapters/ch1"
link /mnt /usr
`

func TestBuildDemo(t *testing.T) {
	w := core.NewWorld()
	tr, err := Build(demoSpec, w, "demo")
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.FileAt(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if data.Content != "#!ls" {
		t.Fatalf("content = %q", data.Content)
	}
	main, err := tr.FileAt(core.ParsePath("doc/main"))
	if err != nil {
		t.Fatal(err)
	}
	if len(main.Embedded) != 1 || main.Embedded[0].String() != "chapters/ch1" {
		t.Fatalf("embedded = %v", main.Embedded)
	}
	// The link shares the entity.
	viaMnt, err := tr.Lookup(core.ParsePath("mnt/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := tr.Lookup(core.ParsePath("usr/bin/ls"))
	if viaMnt != direct {
		t.Fatal("link does not share the entity")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "unknown directive", give: "frob /x"},
		{name: "dir without path", give: "dir "},
		{name: "file without content", give: "file /x"},
		{name: "file with bad quoting", give: `file /x unquoted`},
		{name: "embed missing target", give: `embed /nope "x"`},
		{name: "embed invalid name", give: "file /f \"c\"\nembed /f \"\""},
		{name: "link wrong arity", give: "link /a"},
		{name: "link bad source", give: "link / /x"},
		{name: "link missing target", give: "link /a /nope"},
		{name: "file duplicate", give: "file /f \"a\"\nfile /f \"b\""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := core.NewWorld()
			if _, err := Build(tt.give, w, "t"); err == nil {
				t.Fatalf("spec %q accepted", tt.give)
			}
		})
	}
}

func TestParseSyntaxErrorIsTyped(t *testing.T) {
	w := core.NewWorld()
	_, err := Build("frob /x", w, "t")
	if !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v, want ErrSyntax", err)
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err lacks line number: %v", err)
	}
}

func dumpString(tr *dirtree.Tree) (string, error) {
	var sb strings.Builder
	err := Dump(tr, &sb)
	return sb.String(), err
}

func TestDumpRoundTrip(t *testing.T) {
	w := core.NewWorld()
	tr, err := Build(demoSpec, w, "demo")
	if err != nil {
		t.Fatal(err)
	}
	dump1, err := dumpString(tr)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := Build(dump1, w2, "demo2")
	if err != nil {
		t.Fatalf("re-parse failed: %v\nspec:\n%s", err, dump1)
	}
	dump2, err := dumpString(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if dump1 != dump2 {
		t.Fatalf("round trip not a fixed point:\n--- first\n%s--- second\n%s", dump1, dump2)
	}
	// Structure agrees too.
	if _, err := tr2.Lookup(core.ParsePath("mnt/bin/ls")); err != nil {
		t.Fatal("link lost in round trip")
	}
}

func TestDumpQuotesTrickyContent(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "t")
	tricky := "line1\nline2 \"quoted\" \tend"
	if _, err := tr.Create(core.ParsePath("f"), tricky); err != nil {
		t.Fatal(err)
	}
	dump, err := dumpString(tr)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := Build(dump, w2, "t2")
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr2.FileAt(core.ParsePath("f"))
	if err != nil {
		t.Fatal(err)
	}
	if data.Content != tricky {
		t.Fatalf("content = %q, want %q", data.Content, tricky)
	}
}

func TestDumpOpaqueEntities(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "t")
	act := w.NewActivity("daemon")
	if err := tr.Attach(nil, "proc", act); err != nil {
		t.Fatal(err)
	}
	dump, err := dumpString(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "# opaque /proc") {
		t.Fatalf("opaque entity not noted:\n%s", dump)
	}
	// The dump still parses (the comment is skipped).
	if _, err := Build(dump, core.NewWorld(), "t2"); err != nil {
		t.Fatal(err)
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	w := core.NewWorld()
	tr, err := Build("\n# only comments\n\n", w, "t")
	if err != nil {
		t.Fatal(err)
	}
	if names := tr.RootContext().Names(); len(names) != 0 {
		t.Fatalf("names = %v", names)
	}
}

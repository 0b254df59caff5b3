package main

// Recall tests for the guards that hold the module's own contracts:
// each seeds a copy of the module with the shape its guard exists for and
// requires the guard to report exactly the lines marked `// flagged`.
// TestModuleInvariants shows the guards silent on the module as it is;
// these show that they still see what they are there to see.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"namecoherence/internal/analysis"
)

// edit replaces old, which must occur exactly once in file (relative to
// the module root), by new. An empty old appends new to the file.
type edit struct{ file, old, new string }

// flagged marks a line of a seeded copy that its guard must report.
const flagged = "// flagged"

// checkSeeded copies go.mod and the shipped .go files of internal/ into a
// temporary module, applies edits, loads patterns there and runs the guard
// called name over the copy. Every finding must sit on a line marked
// flagged and carry want in its message, and every marked line must be
// reported.
func checkSeeded(t *testing.T, name, want string, patterns []string, edits ...edit) {
	t.Helper()
	i := slices.IndexFunc(guards, func(g guard) bool { return g.name == name })
	if i < 0 {
		t.Fatalf("no guard %q", name)
	}
	root := repoRoot(t)
	dst, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(src string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(src) != ".go" || strings.HasSuffix(src, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, src)
		return copyFile(filepath.Join(dst, rel), src)
	})
	if err == nil {
		err = copyFile(filepath.Join(dst, "go.mod"), filepath.Join(root, "go.mod"))
	}
	if err != nil {
		t.Fatal(err)
	}

	marked := make(map[string]bool) // "file:line" of every flagged line
	for _, e := range edits {
		name := filepath.Join(dst, filepath.FromSlash(e.file))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		switch n := strings.Count(text, e.old); {
		case e.old == "":
			text += e.new
		case n != 1:
			t.Fatalf("%s: the text to replace occurs %d times, want once:\n%s", e.file, n, e.old)
		default:
			text = strings.Replace(text, e.old, e.new, 1)
		}
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edits {
		data, _ := os.ReadFile(filepath.Join(dst, filepath.FromSlash(e.file)))
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, flagged) {
				marked[fmt.Sprintf("%s:%d", filepath.Join(dst, filepath.FromSlash(e.file)), i+1)] = true
			}
		}
	}
	if len(marked) == 0 {
		t.Fatal("no line is marked " + flagged)
	}

	pkgs, err := analysis.Load(dst, patterns)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(dst, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var findings []analysis.Finding
	guards[i].check(m, reporter{guard: name, fset: m.fset, findings: &findings})
	reported := make(map[string]bool)
	for _, f := range findings {
		at := fmt.Sprintf("%s:%d", f.Posn.Filename, f.Posn.Line)
		reported[at] = true
		if !marked[at] || !strings.Contains(f.Message, want) {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for at := range marked {
		if !reported[at] {
			t.Errorf("%s: %s reported nothing on this line", at, name)
		}
	}
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// TestOneMutationPathGuard seeds binding changes outside
// Server.applyMutation in both server packages: on a core.Context, on a
// value that embeds one, and two on a *core.BasicContext in one function.
// applyMutation's own sites, and Bind/Unbind on a type that is not
// context-shaped, stay silent.
func TestOneMutationPathGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the server packages")
	}
	checkSeeded(t, "one-mutation-path", "one mutation path", []string{"./internal/nameserver", "./internal/cluster"},
		edit{file: "internal/nameserver/mutate.go", new: `
func (s *Server) sneakBind(ctx core.Context, n core.Name, e core.Entity) {
	ctx.Bind(n, e) ` + flagged + `
}

type wrapped struct{ core.Context }

func (s *Server) sneakUnbind(w wrapped, n core.Name) {
	w.Unbind(n) ` + flagged + `
}

type notAContext struct{}

func (notAContext) Bind(core.Name, core.Entity) {}
func (notAContext) Unbind(core.Name)            {}

func unrelatedBind(x notAContext, n core.Name) {
	x.Bind(n, core.Undefined)
	x.Unbind(n)
}
`},
		edit{file: "internal/cluster/cluster.go", new: `
func renameBoth(c *core.BasicContext, from, to core.Name) {
	e := c.Lookup(from)
	c.Unbind(from) ` + flagged + `
	c.Bind(to, e)  ` + flagged + `
}
`})
}

// TestDurablePublishGuardRecall seeds the ways a blob write can report
// success before it is on disk: no fsync of the file, a write after the
// final fsync, no fsync of the directory after the rename, and a second
// writer beside cas.Publish.
func TestDurablePublishGuardRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of internal/cas")
	}
	const (
		file   = "internal/cas/local.go"
		decl   = "func Publish(path string, data []byte, beforeRename func(tmp string) error) error {"
		write  = "\t_, err = f.Write(data)\n"
		synced = "\tif err == nil {\n\t\terr = f.Sync()\n\t}\n"
	)
	pkgs := []string{"./internal/cas"}
	t.Run("no-file-fsync", func(t *testing.T) {
		checkSeeded(t, "durable-publish", "must Sync the file it wrote", pkgs,
			edit{file, decl, decl + " " + flagged},
			edit{file, synced, ""})
	})
	t.Run("write-after-fsync", func(t *testing.T) {
		checkSeeded(t, "durable-publish", "written outside cas.Publish, or twice", pkgs,
			edit{file, write, "\t_, err = f.Write(data) " + flagged + "\n"},
			edit{file, synced, synced + "\tif err == nil {\n\t\t_, err = f.WriteString(\"\\n\") " + flagged + "\n\t}\n"})
	})
	t.Run("no-dir-fsync", func(t *testing.T) {
		checkSeeded(t, "durable-publish", "must fsync the directory", pkgs,
			edit{file, decl, decl + " " + flagged},
			edit{file, "\tif err := syncDir(dir); err != nil {\n\t\treturn fmt.Errorf(\"dir fsync: %w\", err)\n\t}\n", ""})
	})
	t.Run("second-writer", func(t *testing.T) {
		checkSeeded(t, "durable-publish", "written outside cas.Publish, or twice", pkgs,
			edit{file, write, "\t_, err = f.Write(data) " + flagged + "\n"},
			edit{file: file, new: `
func putUnsynced(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) ` + flagged + `
}
`})
	})
}

// TestRequestFieldsServedGuard seeds a request field that the codec
// carries and a helper only stores into: no handler serves it. Every
// field the module has stays silent.
func TestRequestFieldsServedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of internal/nameserver")
	}
	checkSeeded(t, "request-fields-served", "request.Watch is read by no handler", []string{"./internal/nameserver"},
		edit{"internal/nameserver/wire.go", "\tTwin uint64\n}", "\tTwin  uint64\n\tWatch bool " + flagged + "\n}"},
		edit{"internal/nameserver/codec.go", "\tb = binary.AppendUvarint(b, req.Twin)\n",
			"\tb = binary.AppendUvarint(b, req.Twin)\n\tb = varenc.AppendBool(b, req.Watch)\n"},
		edit{file: "internal/nameserver/wire.go", new: `
func clearWatch(req *request) { req.Watch = false }
`})
}

// TestRequestFieldsServedGuardRecall drops the one handler read of
// request.Twin, leaving the field to the codec alone.
func TestRequestFieldsServedGuardRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of internal/nameserver")
	}
	checkSeeded(t, "request-fields-served", "request.Twin is read by no handler", []string{"./internal/nameserver"},
		edit{"internal/nameserver/wire.go", "\tTwin uint64\n}", "\tTwin uint64 " + flagged + "\n}"},
		edit{"internal/nameserver/mutate.go", "\t\ttwin:   core.EntityID(req.Twin),\n", ""})
}

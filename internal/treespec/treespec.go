package treespec

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// ErrSyntax is wrapped by all parse errors.
var ErrSyntax = errors.New("treespec syntax error")

// Parse reads a spec and builds a tree in the world.
func Parse(r io.Reader, w *core.World, label string) (*dirtree.Tree, error) {
	spec, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	return Build(string(spec), w, label)
}

// Build parses a spec given as a string.
func Build(spec string, w *core.World, label string) (*dirtree.Tree, error) {
	tr := dirtree.New(w, label)
	if err := eachLine(spec, func(l line) error { return applyLine(tr, l) }); err != nil {
		return nil, err
	}
	return tr, nil
}

// line is one directive of a spec. Its fields are substrings of the spec:
// parseLine checks each path has a component without splitting it.
type line struct {
	// text is the whole line, trimmed.
	text string
	// directive is "dir", "file", "embed" or "link".
	directive string
	// path is the path the line binds: the directory, the file, the file
	// gaining an embedded name, or the link's new name.
	path string
	// arg is the file's content, the embedded name or the link's target
	// path; empty for dir.
	arg string
}

// eachLine calls fn with every directive of spec in order, skipping blank
// lines and comments. An error, from parsing or from fn, stops the scan
// and is returned with its line number.
func eachLine(spec string, fn func(line) error) error {
	for lineNo := 1; spec != ""; lineNo++ {
		var text string
		text, spec, _ = strings.Cut(spec, "\n")
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		l, err := parseLine(text)
		if err == nil {
			err = fn(l)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return nil
}

// parseLine splits one directive into its fields. Every path it names,
// and an embedded name, must have at least one component.
func parseLine(text string) (line, error) {
	directive, rest, _ := strings.Cut(text, " ")
	rest = strings.TrimSpace(rest)
	l := line{text: text, directive: directive}
	switch directive {
	case "dir":
		l.path = rest
	case "file", "embed":
		path, quoted, _ := strings.Cut(rest, " ")
		quoted = strings.TrimSpace(quoted)
		content, err := strconv.Unquote(quoted)
		if err != nil {
			return l, fmt.Errorf("%s: quoted argument %q: %w", directive, quoted, ErrSyntax)
		}
		l.path, l.arg = path, content
	case "link":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return l, fmt.Errorf("link needs two paths: %w", ErrSyntax)
		}
		l.path, l.arg = fields[0], fields[1]
	default:
		return l, fmt.Errorf("directive %q: %w", directive, ErrSyntax)
	}
	if !hasComponent(l.path) {
		return l, fmt.Errorf("%s path %q: %w", directive, l.path, ErrSyntax)
	}
	if (directive == "embed" || directive == "link") && !hasComponent(l.arg) {
		return l, fmt.Errorf("%s name %q: %w", directive, l.arg, ErrSyntax)
	}
	return l, nil
}

// hasComponent reports whether the textual path s names at least one
// component, as core.ParsePath(s).IsValid() would, without allocating.
func hasComponent(s string) bool { return strings.Trim(s, "/") != "" }

// applyLine applies one parsed directive to tr.
func applyLine(tr *dirtree.Tree, l line) error {
	switch l.directive {
	case "dir":
		_, err := tr.MkdirAll(core.ParsePath(l.path))
		return err
	case "file":
		_, err := tr.Create(core.ParsePath(l.path), l.arg)
		return err
	case "embed":
		data, err := tr.FileAt(core.ParsePath(l.path))
		if err != nil {
			return fmt.Errorf("embed target: %w", err)
		}
		data.Embedded = append(data.Embedded, core.ParsePath(l.arg))
		return nil
	default: // "link"
		newPath := core.ParsePath(l.path)
		target, err := tr.Lookup(core.ParsePath(l.arg))
		if err != nil {
			return fmt.Errorf("link target: %w", err)
		}
		dir, name := newPath[:len(newPath)-1], newPath[len(newPath)-1]
		if _, err := tr.MkdirAll(dir); err != nil {
			return err
		}
		return tr.Attach(dir, name, target)
	}
}

// Dump serializes the tree in spec format. Directories come before their
// children; sharing (an entity reachable by several paths) is emitted as
// link lines for every path after the first.
func Dump(tr *dirtree.Tree, out io.Writer) error {
	firstPath := make(map[core.EntityID]string)
	var lines []string

	var walk func(prefix core.Path, e core.Entity) error
	walk = func(prefix core.Path, e core.Entity) error {
		ctx, ok := tr.W.ContextOf(e)
		if !ok {
			return nil
		}
		names := ctx.Names()
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		for _, n := range names {
			if n == dirtree.ParentName {
				continue
			}
			child := ctx.Lookup(n)
			if child.IsUndefined() {
				continue
			}
			childPath := prefix.Append(n)
			pathStr := "/" + childPath.String()
			if prev, seen := firstPath[child.ID]; seen {
				lines = append(lines, fmt.Sprintf("link %s %s", pathStr, prev))
				continue
			}
			firstPath[child.ID] = pathStr
			if data, err := tr.File(child); err == nil {
				lines = append(lines, fmt.Sprintf("file %s %s", pathStr, strconv.Quote(data.Content)))
				for _, emb := range data.Embedded {
					lines = append(lines, fmt.Sprintf("embed %s %s", pathStr, strconv.Quote(emb.String())))
				}
				continue
			}
			if _, ok := tr.W.ContextOf(child); ok {
				lines = append(lines, "dir "+pathStr)
				if err := walk(childPath, child); err != nil {
					return err
				}
				continue
			}
			// Opaque entity (activity, foreign object): not representable;
			// emit a comment so dumps stay lossless about their limits.
			lines = append(lines, fmt.Sprintf("# opaque %s (%v)", pathStr, child))
		}
		return nil
	}
	if err := walk(nil, tr.Root); err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(out, l); err != nil {
			return err
		}
	}
	return nil
}

package treespec

import (
	"bufio"
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
	tr := dirtree.New(w, label)
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := applyLine(tr, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	return tr, nil
}

// Build parses a spec given as a string.
func Build(spec string, w *core.World, label string) (*dirtree.Tree, error) {
	return Parse(strings.NewReader(spec), w, label)
}

func applyLine(tr *dirtree.Tree, line string) error {
	directive, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch directive {
	case "dir":
		p := core.ParsePath(rest)
		if !p.IsValid() {
			return fmt.Errorf("dir %q: %w", rest, ErrSyntax)
		}
		_, err := tr.MkdirAll(p)
		return err
	case "file":
		pathStr, quoted, err := splitPathAndQuoted(rest)
		if err != nil {
			return fmt.Errorf("file: %w", err)
		}
		p := core.ParsePath(pathStr)
		if !p.IsValid() {
			return fmt.Errorf("file %q: %w", pathStr, ErrSyntax)
		}
		_, err = tr.Create(p, quoted)
		return err
	case "embed":
		pathStr, quoted, err := splitPathAndQuoted(rest)
		if err != nil {
			return fmt.Errorf("embed: %w", err)
		}
		data, err := tr.FileAt(core.ParsePath(pathStr))
		if err != nil {
			return fmt.Errorf("embed target: %w", err)
		}
		emb := core.ParsePath(quoted)
		if !emb.IsValid() {
			return fmt.Errorf("embed name %q: %w", quoted, ErrSyntax)
		}
		data.Embedded = append(data.Embedded, emb)
		return nil
	case "link":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return fmt.Errorf("link needs two paths: %w", ErrSyntax)
		}
		newPath := core.ParsePath(fields[0])
		if !newPath.IsValid() {
			return fmt.Errorf("link path %q: %w", fields[0], ErrSyntax)
		}
		target, err := tr.Lookup(core.ParsePath(fields[1]))
		if err != nil {
			return fmt.Errorf("link target: %w", err)
		}
		if _, err := tr.MkdirAll(newPath[:len(newPath)-1]); err != nil {
			return err
		}
		return tr.Attach(newPath[:len(newPath)-1], newPath[len(newPath)-1], target)
	default:
		return fmt.Errorf("directive %q: %w", directive, ErrSyntax)
	}
}

// splitPathAndQuoted splits `/a/b "quoted rest"` into path and unquoted
// content.
func splitPathAndQuoted(s string) (path, content string, err error) {
	path, rest, found := strings.Cut(s, " ")
	if !found {
		return "", "", fmt.Errorf("missing quoted argument: %w", ErrSyntax)
	}
	rest = strings.TrimSpace(rest)
	content, err = strconv.Unquote(rest)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted argument %s: %w", rest, ErrSyntax)
	}
	return path, content, nil
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

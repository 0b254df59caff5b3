package dirtree

import (
	"errors"
	"fmt"

	"namecoherence/internal/core"
)

// ParentName is the conventional name bound from a directory to its parent
// when parent links are enabled (the Unix ".." notation, which the Newcastle
// Connection uses to refer to nodes above a machine's root).
const ParentName core.Name = ".."

// FileData is the state of a regular file: opaque content plus the compound
// names embedded in it (the paper's structured objects, §6 Example 2).
type FileData struct {
	// Content is the file payload.
	Content string
	// Embedded lists the compound names embedded in the file.
	Embedded []core.Path
}

// Clone returns a deep copy of the file data.
func (f *FileData) Clone() *FileData {
	g := &FileData{Content: f.Content, Embedded: make([]core.Path, len(f.Embedded))}
	for i, p := range f.Embedded {
		g.Embedded[i] = p.Clone()
	}
	return g
}

// Tree is a naming tree: a root context object and operations on the
// subgraph below it.
type Tree struct {
	// W is the world the tree's entities live in.
	W *core.World
	// Root is the root context object.
	Root core.Entity
	// ParentLinks, when set, makes Mkdir bind ".." in each new directory
	// to its parent.
	ParentLinks bool
}

// Errors returned by tree operations.
var (
	ErrNotDirectory = errors.New("not a directory")
	ErrExists       = errors.New("name already bound")
	ErrNotFound     = errors.New("no such name")
)

// New creates a tree with a fresh root directory labelled label.
func New(w *core.World, label string) *Tree {
	root, _ := w.NewContextObject(label)
	return &Tree{W: w, Root: root}
}

// NewWithParentLinks creates a tree whose directories carry ".." bindings.
// The root's ".." is bound to the root itself (the Unix convention); schemes
// such as the Newcastle Connection rebind it.
func NewWithParentLinks(w *core.World, label string) *Tree {
	t := New(w, label)
	t.ParentLinks = true
	rootCtx, _ := w.ContextOf(t.Root)
	rootCtx.Bind(ParentName, t.Root)
	return t
}

// RootContext returns the context of the root directory.
func (t *Tree) RootContext() core.Context {
	c, ok := t.W.ContextOf(t.Root)
	if !ok {
		panic("dirtree: root is not a context object")
	}
	return c
}

// Lookup resolves a path relative to the root. An empty path denotes the
// root itself.
func (t *Tree) Lookup(p core.Path) (core.Entity, error) {
	if len(p) == 0 {
		return t.Root, nil
	}
	return t.W.Resolve(t.RootContext(), p)
}

// LookupTrail is Lookup but returns the access trail (root excluded).
func (t *Tree) LookupTrail(p core.Path) (core.Entity, []core.Entity, error) {
	if len(p) == 0 {
		return t.Root, nil, nil
	}
	return t.W.ResolveTrail(t.RootContext(), p)
}

// dirAt resolves p to a directory and returns its context.
func (t *Tree) dirAt(p core.Path) (core.Entity, core.Context, error) {
	e, err := t.Lookup(p)
	if err != nil {
		return core.Undefined, nil, fmt.Errorf("lookup %q: %w", p, err)
	}
	c, ok := t.W.ContextOf(e)
	if !ok {
		return core.Undefined, nil, fmt.Errorf("%q: %w", p, ErrNotDirectory)
	}
	return e, c, nil
}

// MkdirAll creates every missing directory along p and returns the last.
// Existing directories along the way are reused.
func (t *Tree) MkdirAll(p core.Path) (core.Entity, error) {
	cur := t.Root
	for i, n := range p {
		curCtx, ok := t.W.ContextOf(cur)
		if !ok {
			return core.Undefined, fmt.Errorf("mkdirall %q at %d: %w", p, i, ErrNotDirectory)
		}
		next := curCtx.Lookup(n)
		if next.IsUndefined() {
			dir, dirCtx := t.W.NewContextObject(string(n))
			if t.ParentLinks {
				dirCtx.Bind(ParentName, cur)
			}
			curCtx.Bind(n, dir)
			next = dir
		}
		cur = next
	}
	if _, ok := t.W.ContextOf(cur); !ok {
		return core.Undefined, fmt.Errorf("mkdirall %q: %w", p, ErrNotDirectory)
	}
	return cur, nil
}

// Create creates a file at p (creating parent directories as needed) with
// the given content and embedded names, and returns its entity.
func (t *Tree) Create(p core.Path, content string, embedded ...core.Path) (core.Entity, error) {
	if !p.IsValid() {
		return core.Undefined, fmt.Errorf("create: invalid path %q", p)
	}
	dirPath, name := p[:len(p)-1], p[len(p)-1]
	dir, err := t.MkdirAll(dirPath)
	if err != nil {
		return core.Undefined, err
	}
	dirCtx, _ := t.W.ContextOf(dir)
	if !dirCtx.Lookup(name).IsUndefined() {
		return core.Undefined, fmt.Errorf("create %q: %w", p, ErrExists)
	}
	file := t.W.NewObject(string(name))
	data := &FileData{Content: content, Embedded: embedded}
	if err := t.W.SetState(file, data); err != nil {
		return core.Undefined, err
	}
	dirCtx.Bind(name, file)
	return file, nil
}

// FileAt returns the FileData of the file at p.
func (t *Tree) FileAt(p core.Path) (*FileData, error) {
	e, err := t.Lookup(p)
	if err != nil {
		return nil, err
	}
	return t.File(e)
}

// File returns the FileData of a file entity.
func (t *Tree) File(e core.Entity) (*FileData, error) {
	data, ok := t.W.State(e).(*FileData)
	if !ok {
		return nil, fmt.Errorf("%v: not a regular file", e)
	}
	return data, nil
}

// Attach binds name in the directory at `at` to an arbitrary entity —
// typically the root of another tree (a mount or cross-link). Parent links
// of the attached subtree are not rewritten: the subtree keeps its own
// internal structure, which is what lets it be attached in several places
// simultaneously (§6).
func (t *Tree) Attach(at core.Path, name core.Name, e core.Entity) error {
	_, dirCtx, err := t.dirAt(at)
	if err != nil {
		return err
	}
	if !dirCtx.Lookup(name).IsUndefined() {
		return fmt.Errorf("attach %q at %q: %w", name, at, ErrExists)
	}
	dirCtx.Bind(name, e)
	return nil
}

// Detach removes the binding for name in the directory at `at`.
func (t *Tree) Detach(at core.Path, name core.Name) error {
	_, dirCtx, err := t.dirAt(at)
	if err != nil {
		return err
	}
	if dirCtx.Lookup(name).IsUndefined() {
		return fmt.Errorf("detach %q at %q: %w", name, at, ErrNotFound)
	}
	dirCtx.Unbind(name)
	return nil
}

// Move relocates the entity at src to dst (both full paths). The entity and
// the whole subtree below it are untouched; only the bindings change — the
// model's notion of relocation.
func (t *Tree) Move(src, dst core.Path) error {
	if !src.IsValid() || !dst.IsValid() {
		return fmt.Errorf("move: invalid path")
	}
	e, err := t.Lookup(src)
	if err != nil {
		return fmt.Errorf("move source: %w", err)
	}
	_, dstCtx, err := t.dirAt(dst[:len(dst)-1])
	if err != nil {
		return fmt.Errorf("move destination: %w", err)
	}
	dstName := dst[len(dst)-1]
	if !dstCtx.Lookup(dstName).IsUndefined() {
		return fmt.Errorf("move to %q: %w", dst, ErrExists)
	}
	_, srcCtx, err := t.dirAt(src[:len(src)-1])
	if err != nil {
		return fmt.Errorf("move source parent: %w", err)
	}
	srcCtx.Unbind(src[len(src)-1])
	dstCtx.Bind(dstName, e)
	if t.ParentLinks {
		if eCtx, ok := t.W.ContextOf(e); ok {
			parent, _, err := t.dirAt(dst[:len(dst)-1])
			if err == nil {
				eCtx.Bind(ParentName, parent)
			}
		}
	}
	return nil
}

// CopySubtree deep-copies the subtree rooted at the entity at src and binds
// the copy at dst. Directories become fresh context objects; files become
// fresh objects with cloned FileData (embedded names are copied verbatim —
// whether they still mean the same thing afterwards is exactly the
// coherence question of §6). Cycles and internal cross-links are preserved
// via an old→new entity map.
func (t *Tree) CopySubtree(src, dst core.Path) (core.Entity, error) {
	if !dst.IsValid() {
		return core.Undefined, fmt.Errorf("copy: invalid destination %q", dst)
	}
	srcEnt, err := t.Lookup(src)
	if err != nil {
		return core.Undefined, fmt.Errorf("copy source: %w", err)
	}
	_, dstCtx, err := t.dirAt(dst[:len(dst)-1])
	if err != nil {
		return core.Undefined, fmt.Errorf("copy destination: %w", err)
	}
	dstName := dst[len(dst)-1]
	if !dstCtx.Lookup(dstName).IsUndefined() {
		return core.Undefined, fmt.Errorf("copy to %q: %w", dst, ErrExists)
	}
	copied := make(map[core.EntityID]core.Entity)
	dup := t.copyEntity(srcEnt, copied)
	dstCtx.Bind(dstName, dup)
	return dup, nil
}

// copyEntity clones e (directory or file) into the world, reusing clones
// for entities already copied. Entities outside the subtree that the
// subtree points at (e.g. ".." to an outside parent, or a mount of a shared
// tree) are shared, not copied: the copy keeps pointing at the original,
// like a copied symlink target.
func (t *Tree) copyEntity(e core.Entity, copied map[core.EntityID]core.Entity) core.Entity {
	if dup, ok := copied[e.ID]; ok {
		return dup
	}
	if ctx, ok := t.W.ContextOf(e); ok {
		dup, dupCtx := t.W.NewContextObject(t.W.Label(e))
		copied[e.ID] = dup
		for _, n := range ctx.Names() {
			child := ctx.Lookup(n)
			if n == ParentName {
				// Parent links are structural, not content: the copy's
				// parent is set by the caller's binding; interior parent
				// links are rewritten to the copied parents below.
				if dupParent, ok := copied[child.ID]; ok {
					dupCtx.Bind(n, dupParent)
				}
				continue
			}
			dupCtx.Bind(n, t.copyEntity(child, copied))
		}
		return dup
	}
	if data, ok := t.W.State(e).(*FileData); ok {
		dup := t.W.NewObject(t.W.Label(e))
		_ = t.W.SetState(dup, data.Clone())
		copied[e.ID] = dup
		return dup
	}
	// Opaque entity (activity, foreign object): share it.
	copied[e.ID] = e
	return e
}

// Walk visits every (path, entity) pair reachable from the root by
// depth-first traversal, skipping parent links and revisits. The visit
// function may return false to prune the subtree below the entity.
func (t *Tree) Walk(visit func(p core.Path, e core.Entity) bool) {
	seen := map[core.EntityID]bool{t.Root.ID: true}
	var rec func(p core.Path, e core.Entity)
	rec = func(p core.Path, e core.Entity) {
		c, ok := t.W.ContextOf(e)
		if !ok {
			return
		}
		for _, n := range c.Names() {
			if n == ParentName {
				continue
			}
			child := c.Lookup(n)
			if child.IsUndefined() || seen[child.ID] {
				continue
			}
			seen[child.ID] = true
			childPath := p.Append(n)
			if !visit(childPath, child) {
				continue
			}
			rec(childPath, child)
		}
	}
	rec(nil, t.Root)
}

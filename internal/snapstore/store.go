package snapstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// ErrBadSnapshot is wrapped by Restore errors: the blob graph under the
// given root is malformed or incomplete.
var ErrBadSnapshot = errors.New("bad snapshot")

// objectsDir is the blob directory inside a Store's data directory.
const objectsDir = "objects"

// Store is a snapshot repository: a cas.Store holding Merkle node blobs
// plus a revision-history manifest. Safe for concurrent use; concurrent
// Snapshot calls of shared structure dedup against each other through the
// CAS existence check.
type Store struct {
	cs  *cas.Store
	dir string // manifest directory; "" = manifest kept in memory only

	mu  sync.Mutex
	man manifest
}

// New returns a Store over an existing CAS (typically cas.NewMem for
// tests and replica scratch space). Its manifest lives in memory only.
func New(cs *cas.Store) *Store {
	return &Store{cs: cs}
}

// Open opens (creating if needed) a durable Store rooted at dir: blobs in
// dir/objects with write-then-rename + fsync durability, manifest in
// dir/MANIFEST.json written atomically. Temp files abandoned by a crashed
// writer are swept at open.
func Open(dir string) (*Store, error) {
	local, err := cas.OpenLocal(filepath.Join(dir, objectsDir))
	if err != nil {
		return nil, err
	}
	if _, err := local.SweepTemps(); err != nil {
		return nil, fmt.Errorf("sweep crashed writes: %w", err)
	}
	s := &Store{cs: cas.NewStore(local), dir: dir}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s.man = man
	return s, nil
}

// CAS returns the underlying content-addressed store.
func (s *Store) CAS() *cas.Store { return s.cs }

// Snapshot serializes the subtree rooted at root into canonical Merkle
// blobs and returns the root hash — one hash that names the whole
// subtree. Shared subtrees are stored once; links back to an ancestor are
// encoded as cycle references; identical structure produces identical
// hashes no matter which replica built it. It is the stateless reference:
// an Encoder that remembers nothing, walking everything.
func (s *Store) Snapshot(w *core.World, root core.Entity) (cas.Hash, error) {
	return s.NewEncoder(w, root).Snapshot(nil, true)
}

// Encoder snapshots one subtree again and again, remembering which blob
// each entity encoded to: told which directories changed, it re-encodes
// those and the directories above them and takes every other hash from
// memory — same blobs, same order, same root as a walk of everything. Not
// safe for concurrent use.
//
// What it can be told is what the commit log says (nameserver's
// ChangedSince): these directories had a leaf — old and new target both
// non-directories — bound, unbound or replaced. Anything else is
// "everything": binding or unbinding a directory moves where the walk first
// meets a subtree and which ancestors are open then, so which links encode
// as cycle references; until that happens a remembered blob holding one
// stays good. State replaced in place with no binding change is not seen:
// a snapshot follows bindings.
type Encoder struct {
	w       *core.World
	cs      *cas.Store
	root    core.Entity
	memo    map[core.EntityID]cas.Hash        // entity → blob hash, post-order; nil before the first walk
	parents map[core.EntityID][]core.EntityID // directory → the directories whose blobs hold its hash
	onStack map[core.EntityID]int             // entity → DFS depth, while open
}

// NewEncoder returns an encoder of the subtree at root into s; its first
// Snapshot walks everything.
func (s *Store) NewEncoder(w *core.World, root core.Entity) *Encoder {
	return &Encoder{w: w, cs: s.cs, root: root, onStack: make(map[core.EntityID]int)}
}

// Snapshot stores the subtree as it is now and returns its root hash. dirty
// names the directories whose leaf bindings changed since the last call
// that returned no error; all drops what is remembered. An error leaves
// nothing wrong remembered — dirty directories and everything above them
// are forgotten before the first Put, an entity is remembered only after
// its own — so a retry told the same again is correct.
func (en *Encoder) Snapshot(dirty []core.EntityID, all bool) (cas.Hash, error) {
	if all || en.memo == nil {
		en.memo = make(map[core.EntityID]cas.Hash)
		en.parents = make(map[core.EntityID][]core.EntityID)
	}
	for _, d := range dirty {
		en.forget(d)
	}
	clear(en.onStack) // a failed walk leaves its stack behind
	h, err := en.encode(en.root, 0, 0)
	if err != nil {
		return cas.Hash{}, fmt.Errorf("snapshot %v: %w", en.root, err)
	}
	return h, nil
}

// forget drops what is remembered of d and of every directory whose blob
// names d's hash, transitively; one already forgotten took those along.
func (en *Encoder) forget(d core.EntityID) {
	if _, ok := en.memo[d]; !ok {
		return
	}
	delete(en.memo, d)
	for _, p := range en.parents[d] {
		en.forget(p)
	}
}

// encode serializes e's subtree (post-order: children's blobs are in the
// store before their parent's — the invariant CatchUp's pruning relies
// on) and returns its hash, which the blob of the directory from will hold.
// depth is e's position on the DFS stack.
func (en *Encoder) encode(e core.Entity, from core.EntityID, depth int) (cas.Hash, error) {
	if h, ok := en.memo[e.ID]; ok {
		if ps, isDir := en.parents[e.ID]; isDir && !slices.Contains(ps, from) {
			en.parents[e.ID] = append(ps, from)
		}
		return h, nil
	}
	node := &Node{}
	if ctx, ok := en.w.ContextOf(e); ok {
		node.Kind = KindDir
		node.EntityKind = e.Kind
		en.onStack[e.ID] = depth
		if ps := en.parents[e.ID]; !slices.Contains(ps, from) {
			en.parents[e.ID] = append(ps, from) // only directories get a key: a leaf is never forgotten
		}
		for _, name := range ctx.Names() {
			child := ctx.Lookup(name)
			if child.IsUndefined() {
				continue
			}
			var ref Ref
			if d, open := en.onStack[child.ID]; open {
				ref = Ref{IsCycle: true, Cycle: uint32(depth - d)}
			} else {
				h, err := en.encode(child, e.ID, depth+1)
				if err != nil {
					return cas.Hash{}, err
				}
				ref = Ref{Hash: h}
			}
			node.Entries = append(node.Entries, Entry{Name: name, Ref: ref})
		}
		delete(en.onStack, e.ID)
	} else if data, ok := en.w.State(e).(*dirtree.FileData); ok {
		node.Kind = KindFile
		node.Content = data.Content
		node.Embedded = data.Embedded
	} else {
		node.Kind = KindOpaque
		node.EntityKind = e.Kind
		node.Label = en.w.Label(e)
	}
	h, err := en.cs.Put(node.Encode())
	if err != nil {
		return cas.Hash{}, err
	}
	en.memo[e.ID] = h
	return h, nil
}

// Restore materializes the subtree named by root into w and returns it as
// a tree. Hash-shared blobs restore to shared entities, except subtrees
// whose cycle references escape them (a ".."-style link above their own
// root): those are relative names, re-instantiated per occurrence so each
// copy's cycles resolve against its own access path. label names the
// restored root; interior entities are labelled by the binding that
// reaches them first.
func (s *Store) Restore(root cas.Hash, w *core.World, label string) (*dirtree.Tree, error) {
	rs := &restorer{w: w, cs: s.cs, memo: make(map[cas.Hash]core.Entity)}
	e, _, err := rs.restore(root, label, nil)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", root, err)
	}
	if _, ok := w.ContextOf(e); !ok {
		return nil, fmt.Errorf("restore %s: root is not a context object: %w", root, ErrBadSnapshot)
	}
	return &dirtree.Tree{W: w, Root: e}, nil
}

// restorer is one Restore call's DFS state.
type restorer struct {
	w    *core.World
	cs   *cas.Store
	memo map[cas.Hash]core.Entity // self-contained subtrees only
}

// restore materializes the blob graph under h. stack holds the entities
// currently being built, bottom (root) first; cycle references index into
// it from the top. It returns the entity and the subtree's escape height:
// how far above itself its deepest cycle reference points (0 = fully
// self-contained). Only self-contained subtrees are memoized — an
// escaping reference is relative to the access path, so each occurrence
// must re-resolve it against its own ancestors.
func (rs *restorer) restore(h cas.Hash, label string, stack []core.Entity) (core.Entity, int, error) {
	if e, ok := rs.memo[h]; ok {
		return e, 0, nil
	}
	data, err := rs.cs.Get(h)
	if err != nil {
		return core.Undefined, 0, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	node, err := DecodeNode(data)
	if err != nil {
		return core.Undefined, 0, fmt.Errorf("%s: %w: %w", h, ErrBadSnapshot, err)
	}
	switch node.Kind {
	case KindDir:
		var e core.Entity
		var ctx *core.BasicContext
		if node.EntityKind == core.KindActivity {
			e = rs.w.NewActivity(label)
			ctx = core.NewContext()
			if err := rs.w.SetState(e, ctx); err != nil {
				return core.Undefined, 0, err
			}
		} else {
			e, ctx = rs.w.NewContextObject(label)
		}
		stack = append(stack, e)
		escape := 0
		for _, entry := range node.Entries {
			if entry.Ref.IsCycle {
				d := int(entry.Ref.Cycle)
				if d >= len(stack) {
					return core.Undefined, 0, fmt.Errorf(
						"%s: cycle ref %d deeper than access path %d: %w",
						h, d, len(stack), ErrBadSnapshot)
				}
				ctx.Bind(entry.Name, stack[len(stack)-1-d])
				if d > escape {
					escape = d
				}
				continue
			}
			child, childEscape, err := rs.restore(entry.Ref.Hash, string(entry.Name), stack)
			if err != nil {
				return core.Undefined, 0, err
			}
			ctx.Bind(entry.Name, child)
			if childEscape-1 > escape {
				escape = childEscape - 1
			}
		}
		if escape == 0 {
			rs.memo[h] = e
		}
		return e, escape, nil
	case KindFile:
		e := rs.w.NewObject(label)
		if err := rs.w.SetState(e, &dirtree.FileData{
			Content:  node.Content,
			Embedded: node.Embedded,
		}); err != nil {
			return core.Undefined, 0, err
		}
		rs.memo[h] = e
		return e, 0, nil
	case KindOpaque:
		var e core.Entity
		if node.EntityKind == core.KindActivity {
			e = rs.w.NewActivity(node.Label)
		} else {
			e = rs.w.NewObject(node.Label)
		}
		rs.memo[h] = e
		return e, 0, nil
	default:
		return core.Undefined, 0, fmt.Errorf("%s: node kind %d: %w", h, node.Kind, ErrBadSnapshot)
	}
}

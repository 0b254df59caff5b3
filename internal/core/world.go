package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// State is the model's S: the state σ(e) of an entity. Object states that
// implement Context make the object a context object; any other value is
// opaque to the model. A nil State is the undefined state ⊥S.
type State interface{}

// GroupID identifies a replica group within a World. Zero means "no group".
type GroupID uint64

// World holds the sets of the naming model: entities (with kind, label and
// state) and replica groups. It is the σ function of the paper — the global
// state of the system — plus entity identity. A World is safe for concurrent
// use.
//
// Entities live in one dense table: IDs are handed out sequentially and
// never freed, so entity id is row id-1 and every per-entity read is a
// bounds check and a load, with no hashing. The table grows a chunk at a
// time, so rows never move and growth copies nothing.
type World struct {
	mu        sync.RWMutex
	chunks    []*[chunkRows]entityRow
	count     int // entities created; rows at or past it are unused
	nextGroup GroupID
	members   map[GroupID][]EntityID
	dirs      []BasicContext // the rest of the chunk NewContextObject hands out
}

// chunkRows is how many rows the table grows by: 32 KiB at a time.
const chunkRows = 512

// entityRow is everything the World knows about one entity, sized to one
// 64-byte cache line so a resolution step touches a single line here. ctx
// caches state.(Context): the walk's σ(e) ∈ C test is a nil check on it
// rather than a type assertion per component.
type entityRow struct {
	ctx   Context
	state State
	label string
	group GroupID // zero: no replica group
	kind  Kind
}

// ErrUnknownEntity is returned for operations on entities the World does not
// contain (including the undefined entity).
var ErrUnknownEntity = errors.New("unknown entity")

// ErrUnknownGroup is returned for operations on replica groups the World
// does not contain.
var ErrUnknownGroup = errors.New("unknown replica group")

// NewWorld returns an empty World.
func NewWorld() *World {
	return &World{members: make(map[GroupID][]EntityID)}
}

// row returns e's table row, or nil if this World does not contain e: the
// undefined entity, an ID past the end of the table, or a known ID paired
// with the wrong kind (which includes most entities minted by another
// World). The caller must hold w.mu.
func (w *World) row(e Entity) *entityRow {
	i := uint64(e.ID) - 1 // Undefined wraps past any table length
	if i >= uint64(w.count) {
		return nil
	}
	r := &w.chunks[i/chunkRows][i%chunkRows]
	if r.kind != e.Kind {
		return nil
	}
	return r
}

func (w *World) newEntity(kind Kind, label string, ctx Context) Entity {
	row := entityRow{ctx: ctx, state: ctx, label: strings.Clone(label), kind: kind}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count == len(w.chunks)*chunkRows {
		w.chunks = append(w.chunks, new([chunkRows]entityRow))
	}
	w.chunks[w.count/chunkRows][w.count%chunkRows] = row
	w.count++
	return Entity{ID: EntityID(w.count), Kind: kind}
}

// NewActivity creates an activity (an active entity, e.g. a process).
func (w *World) NewActivity(label string) Entity {
	return w.newEntity(KindActivity, label, nil)
}

// NewObject creates an object (a passive entity, e.g. a file).
func (w *World) NewObject(label string) Entity {
	return w.newEntity(KindObject, label, nil)
}

// NewContextObject creates an object whose state is a fresh context — the
// model's directory. It returns both the entity and its context.
//
// Contexts are handed out of 64-context chunks, as entity rows are: they
// live as long as the World, and allocated one by one they sat among a
// build's same-sized garbage, each pinning a mostly empty span.
func (w *World) NewContextObject(label string) (Entity, *BasicContext) {
	w.mu.Lock()
	if len(w.dirs) == 0 {
		w.dirs = make([]BasicContext, 64)
	}
	c := &w.dirs[0]
	w.dirs = w.dirs[1:]
	w.mu.Unlock()
	return w.newEntity(KindObject, label, c), c
}

// Exists reports whether the entity belongs to this World.
func (w *World) Exists(e Entity) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.row(e) != nil
}

// SetState sets σ(e); a nil state resets it to ⊥S. Setting a Context state
// turns an object into a context object. Activities may also carry state;
// the model keeps SA and SO disjoint only conceptually.
func (w *World) SetState(e Entity, s State) error {
	ctx, _ := s.(Context)
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.row(e)
	if r == nil {
		return fmt.Errorf("set state of %v: %w", e, ErrUnknownEntity)
	}
	r.state, r.ctx = s, ctx
	return nil
}

// State returns σ(e), or nil (⊥S) if the entity has no state or is unknown.
func (w *World) State(e Entity) State {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if r := w.row(e); r != nil {
		return r.state
	}
	return nil
}

// ContextOf returns the entity's state as a context, if it is one. Only
// entities whose state is a Context participate in compound-name resolution.
func (w *World) ContextOf(e Entity) (Context, bool) {
	var ctx Context
	w.mu.RLock()
	if r := w.row(e); r != nil {
		ctx = r.ctx
	}
	w.mu.RUnlock()
	return ctx, ctx != nil
}

// IsContextObject reports whether e is an object whose state is a context.
func (w *World) IsContextObject(e Entity) bool {
	if !e.IsObject() {
		return false
	}
	_, ok := w.ContextOf(e)
	return ok
}

// Label returns the debug label given at creation (or set later).
func (w *World) Label(e Entity) string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if r := w.row(e); r != nil {
		return r.label
	}
	return ""
}

// SetLabel replaces the entity's debug label.
func (w *World) SetLabel(e Entity, label string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.row(e)
	if r == nil {
		return fmt.Errorf("set label of %v: %w", e, ErrUnknownEntity)
	}
	r.label = strings.Clone(label)
	return nil
}

// EntityCount returns the number of entities in the World.
func (w *World) EntityCount() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.count
}

// Entities returns all entities, ordered by ID.
func (w *World) Entities() []Entity {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]Entity, 0, w.count)
	w.eachRow(func(e Entity, _ *entityRow) { out = append(out, e) })
	return out
}

// eachRow calls f for every entity, in ID order. The caller holds w.mu.
func (w *World) eachRow(f func(Entity, *entityRow)) {
	for i := 0; i < w.count; i++ {
		r := &w.chunks[i/chunkRows][i%chunkRows]
		f(Entity{ID: EntityID(i + 1), Kind: r.kind}, r)
	}
}

// NewReplicaGroup registers a replica group: a set of objects o1..og whose
// states are kept equal by the system (σ(o1) = … = σ(og) in every legal
// state). Weak coherence (§5) is defined relative to these groups.
func (w *World) NewReplicaGroup(members ...Entity) (GroupID, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range members {
		if w.row(m) == nil {
			return 0, fmt.Errorf("replica group member %v: %w", m, ErrUnknownEntity)
		}
	}
	w.nextGroup++
	g := w.nextGroup
	for _, m := range members {
		w.row(m).group = g
		w.members[g] = append(w.members[g], m.ID)
	}
	return g, nil
}

// AddReplica adds an entity to an existing replica group.
func (w *World) AddReplica(g GroupID, e Entity) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.row(e)
	if r == nil {
		return fmt.Errorf("add replica %v: %w", e, ErrUnknownEntity)
	}
	if _, ok := w.members[g]; !ok {
		return fmt.Errorf("add replica to group %d: %w", g, ErrUnknownGroup)
	}
	r.group = g
	w.members[g] = append(w.members[g], e.ID)
	return nil
}

// ReplicaGroup returns the group the entity belongs to, if any.
func (w *World) ReplicaGroup(e Entity) (GroupID, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if r := w.row(e); r != nil && r.group != 0 {
		return r.group, true
	}
	return 0, false
}

// SameReplica reports whether a and b denote the same entity or replicas of
// the same replicated object — the agreement relation of weak coherence.
func (w *World) SameReplica(a, b Entity) bool {
	if a == b {
		return !a.IsUndefined()
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	ra, rb := w.row(a), w.row(b)
	return ra != nil && rb != nil && ra.group != 0 && ra.group == rb.group
}

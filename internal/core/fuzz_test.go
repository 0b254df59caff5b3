package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParsePath checks the parser's total behaviour: no panics, no empty
// components, and re-rendering round-trips for clean inputs.
func FuzzParsePath(f *testing.F) {
	for _, seed := range []string{"", "/", "a/b/c", "//a//", "..", "a/./b", "/../m1/etc"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p := ParsePath(s)
		for _, n := range p {
			if n == "" {
				t.Fatalf("empty component in %q -> %v", s, p)
			}
			if strings.Contains(string(n), Separator) {
				t.Fatalf("separator inside component %q", n)
			}
		}
		// Parse of render is identity.
		if !ParsePath(p.String()).Equal(p) {
			t.Fatalf("round-trip failed for %q: %v", s, p)
		}
		// Absoluteness detection agrees with prefix.
		abs, q := SplitPathString(s)
		if abs != strings.HasPrefix(s, Separator) || !q.Equal(p) {
			t.Fatalf("SplitPathString mismatch for %q", s)
		}
	})
}

// FuzzResolve throws arbitrary path strings at a fixed naming graph:
// resolution must never panic, and must fail or succeed consistently with
// a reference walk.
func FuzzResolve(f *testing.F) {
	for _, seed := range []string{"usr/bin/ls", "usr", "x", "usr/bin/ls/deep", "self/x", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w := NewWorld()
		_, rootCtx := w.NewContextObject("root")
		usr, usrCtx := w.NewContextObject("usr")
		bin, binCtx := w.NewContextObject("bin")
		ls := w.NewObject("ls")
		act := w.NewActivity("act")
		rootCtx.Bind("usr", usr)
		rootCtx.Bind("self", act)
		usrCtx.Bind("bin", bin)
		binCtx.Bind("ls", ls)

		p := ParsePath(s)
		got, err := w.Resolve(rootCtx, p)

		// Reference: step component by component.
		var want Entity
		var wantErr bool
		if len(p) == 0 {
			wantErr = true
		} else {
			cur := Context(rootCtx)
			for i, n := range p {
				e := cur.Lookup(n)
				if e.IsUndefined() {
					wantErr = true
					break
				}
				if i == len(p)-1 {
					want = e
					break
				}
				next, ok := w.ContextOf(e)
				if !ok {
					wantErr = true
					break
				}
				cur = next
			}
		}
		if wantErr {
			if err == nil {
				t.Fatalf("resolve %q succeeded (%v), reference failed", s, got)
			}
			if !got.IsUndefined() {
				t.Fatalf("failed resolve returned defined entity %v", got)
			}
			return
		}
		if err != nil || got != want {
			t.Fatalf("resolve %q = (%v, %v), want %v", s, got, err, want)
		}
	})
}

// refWorld is the World this package had before the dense entity table: one
// plain map per attribute, keyed by entity ID, with contexts as plain maps.
// FuzzWorldOps runs it beside the real World; it is deliberately naive.
type refWorld struct {
	next      EntityID
	nextGroup GroupID
	kinds     map[EntityID]Kind
	labels    map[EntityID]string
	states    map[EntityID]any // nil, an opaque value, or *refContext
	group     map[EntityID]GroupID
	groups    map[GroupID]bool // groups that have ever had a member
}

// refContext models one Context value; real is the Context it shadows.
type refContext struct {
	real     Context
	bindings map[Name]Entity
	basic    bool // a *BasicContext, the only kind a watch can be set on
	watched  bool
}

func newRefWorld() *refWorld {
	return &refWorld{
		kinds: map[EntityID]Kind{}, labels: map[EntityID]string{}, states: map[EntityID]any{},
		group: map[EntityID]GroupID{}, groups: map[GroupID]bool{},
	}
}

func (r *refWorld) add(k Kind, label string, state any) Entity {
	r.next++
	r.kinds[r.next], r.labels[r.next] = k, label
	if state != nil {
		r.states[r.next] = state
	}
	return Entity{ID: r.next, Kind: k}
}

func (r *refWorld) exists(e Entity) bool {
	k, ok := r.kinds[e.ID]
	return ok && e.ID != 0 && k == e.Kind
}

func (r *refWorld) state(e Entity) any {
	if !r.exists(e) {
		return nil
	}
	return r.states[e.ID]
}

func (r *refWorld) contextOf(e Entity) *refContext {
	c, _ := r.state(e).(*refContext)
	return c
}

func (r *refWorld) replicaGroup(e Entity) (GroupID, bool) {
	if !r.exists(e) {
		return 0, false
	}
	g, ok := r.group[e.ID]
	return g, ok
}

func (r *refWorld) sameReplica(a, b Entity) bool {
	if a == b {
		return a.ID != 0
	}
	ga, oka := r.replicaGroup(a)
	gb, okb := r.replicaGroup(b)
	return oka && okb && ga == gb
}

func (r *refWorld) ids() []EntityID {
	ids := make([]EntityID, 0, len(r.kinds))
	for id := range r.kinds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (r *refWorld) graph() []Edge {
	var edges []Edge
	for _, id := range r.ids() {
		c, ok := r.states[id].(*refContext)
		if !ok {
			continue
		}
		for _, n := range c.names() {
			edges = append(edges, Edge{From: Entity{ID: id, Kind: r.kinds[id]}, Label: n, To: c.bindings[n]})
		}
	}
	return edges
}

func (c *refContext) names() []Name {
	names := make([]Name, 0, len(c.bindings))
	for n := range c.bindings {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// watch mirrors WatchReachable: reach by following bindings as bound, then
// watch what each reached ID holds as an object. An ID bound under two
// kinds is followed as whichever the walk meets first, so the walk's order
// (names ascending, depth first from the last) is part of what is mirrored.
func (r *refWorld) watch(root Entity) int {
	seen := map[EntityID]bool{root.ID: true}
	stack := []Entity{root}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := r.contextOf(e)
		if c == nil {
			continue
		}
		for _, n := range c.names() {
			if to := c.bindings[n]; !seen[to.ID] {
				seen[to.ID] = true
				stack = append(stack, to)
			}
		}
	}
	n := 0
	for id := range seen {
		if c := r.contextOf(Entity{ID: id, Kind: KindObject}); c != nil && c.basic && !c.watched {
			c.watched = true
			n++
		}
	}
	return n
}

// FuzzWorldOps decodes its input as a sequence of World operations —
// entity creation, SetState, SetLabel, replica groups, binds, watches —
// aimed at real entities and at every kind of entity the World does not
// contain (Undefined, past the end of the table, right ID with the wrong
// kind, minted by another World), applies each to the World and to
// refWorld, and requires every getter to agree after every step.
func FuzzWorldOps(f *testing.F) {
	f.Add([]byte{})
	// mkdir, file, bind, watch, bind and unbind under the watch
	f.Add([]byte{2, 2, 1, 1, 7, 4, 2, 12, 9, 4, 7, 4, 0, 12, 8, 4, 2, 0})
	// replica groups: members, strays as members, unknown groups
	f.Add([]byte{0, 0, 1, 0, 1, 1, 5, 12, 20, 6, 1, 4, 6, 1, 0, 6, 3, 4, 5, 4, 1, 6, 1, 2})
	// every SetState flavour on an object, then on each kind of stray
	f.Add([]byte{2, 0, 1, 0, 3, 12, 1, 3, 12, 2, 3, 12, 3, 3, 12, 4, 0, 3, 12, 0, 3, 0, 1, 3, 1, 2, 3, 2, 2, 3, 3, 1, 3, 11, 1, 4, 2, 3})
	// one directory under two names, watched once; a wrong-kind binding
	f.Add([]byte{2, 0, 2, 0, 7, 4, 0, 12, 7, 4, 1, 12, 9, 4, 1, 0, 7, 12, 2, 20, 7, 4, 2, 10, 9, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		other := NewWorld()
		foreignDir, _ := other.NewContextObject("d")
		foreign := []Entity{other.NewActivity("a"), other.NewObject("o"), foreignDir}

		w, ref := NewWorld(), newRefWorld()
		var ents []Entity
		var ctxs []*refContext
		hooked, wantHooked := 0, 0
		hook := func(Change) { hooked++ }
		labels := []string{"", "a", "dir", "a long label that is not compact at all"}
		// Enough names that one directory outgrows the runtime map's
		// single-group form several times over.
		names := []Name{"x", "y", "bin", "a-rather-longer-name"}
		for i := 0; i < 60; i++ {
			names = append(names, Name(fmt.Sprintf("n%02d", i)))
		}

		newCtx := func(real Context) *refContext {
			_, basic := real.(*BasicContext)
			c := &refContext{real: real, bindings: map[Name]Entity{}, basic: basic}
			ctxs = append(ctxs, c)
			return c
		}
		// pick turns a byte into an entity: one of four kinds of stray, or
		// (half of the time) one the World contains.
		pick := func(b byte) Entity {
			n, sel := len(ents), int(b/8)
			switch {
			case b%8 == 1:
				return Entity{ID: EntityID(n + 1 + sel), Kind: KindObject}
			case b%8 == 2 && n > 0:
				e := ents[sel%n]
				e.Kind = (e.Kind + 1 + Kind(sel/n%2)) % 3 // either of the two wrong kinds
				return e
			case b%8 == 3:
				return foreign[sel%len(foreign)]
			case b%8 >= 4 && n > 0:
				return ents[sel%n]
			}
			return Undefined
		}
		unknownUnless := func(ok bool) error {
			if ok {
				return nil
			}
			return ErrUnknownEntity
		}
		sameErr := func(what string, got, want error) {
			t.Helper()
			if (want == nil) != (got == nil) || !errors.Is(got, want) {
				t.Fatalf("%s: err = %v, want %v", what, got, want)
			}
		}

		for step := 0; len(data) > 0 && step < 150; step++ {
			switch op := next() % 10; op {
			case 0, 1, 2:
				label := labels[int(next())%len(labels)]
				var e, want Entity
				switch op {
				case 0:
					e, want = w.NewActivity(label), ref.add(KindActivity, label, nil)
				case 1:
					e, want = w.NewObject(label), ref.add(KindObject, label, nil)
				default:
					var c *BasicContext
					e, c = w.NewContextObject(label)
					want = ref.add(KindObject, label, newCtx(c))
				}
				same(t, "new entity", e, want)
				ents = append(ents, e)
			case 3:
				e, flavour := pick(next()), next()%5
				var c *refContext
				switch {
				case flavour == 2:
					c = newCtx(NewContext())
				case flavour == 3:
					c = newCtx(Union(NewContext()))
				case flavour == 4 && len(ctxs) > 0: // one context, the state of two entities
					c = ctxs[int(next())%len(ctxs)]
				}
				var real State
				var model any
				if c != nil {
					real, model = c.real, c
				} else if flavour == 1 {
					real, model = "payload", "payload"
				}
				sameErr("SetState", w.SetState(e, real), unknownUnless(ref.exists(e)))
				if ref.exists(e) {
					ref.states[e.ID] = model
				}
			case 4:
				e, label := pick(next()), labels[int(next())%len(labels)]
				sameErr("SetLabel", w.SetLabel(e, label), unknownUnless(ref.exists(e)))
				if ref.exists(e) {
					ref.labels[e.ID] = label
				}
			case 5:
				a, b := pick(next()), pick(next())
				var wantG GroupID
				wantErr := unknownUnless(ref.exists(a) && ref.exists(b))
				if wantErr == nil {
					ref.nextGroup++
					wantG = ref.nextGroup
					ref.group[a.ID], ref.group[b.ID], ref.groups[wantG] = wantG, wantG, true
				}
				g, err := w.NewReplicaGroup(a, b)
				sameErr("NewReplicaGroup", err, wantErr)
				same(t, "NewReplicaGroup id", g, wantG)
			case 6:
				g, e := GroupID(next()%4), pick(next())
				want := unknownUnless(ref.exists(e))
				if want == nil && !ref.groups[g] {
					want = ErrUnknownGroup
				}
				sameErr("AddReplica", w.AddReplica(g, e), want)
				if want == nil {
					ref.group[e.ID] = g
				}
			case 7, 8:
				dir, name, target := pick(next()), names[int(next())%len(names)], pick(next())
				real, ok := w.ContextOf(dir)
				rc := ref.contextOf(dir)
				same(t, "ContextOf presence", ok, rc != nil)
				if !ok {
					continue
				}
				if op == 7 && !target.IsUndefined() {
					real.Bind(name, target)
					rc.bindings[name] = target
				} else {
					real.Unbind(name)
					delete(rc.bindings, name)
				}
				if rc.watched {
					wantHooked++
				}
			case 9:
				root := pick(next())
				watched, _ := w.WatchReachable(root, hook)
				same(t, "WatchReachable", watched, ref.watch(root))
			}

			same(t, "hook calls", hooked, wantHooked)
			same(t, "EntityCount", w.EntityCount(), len(ref.kinds))
			if got := w.Entities(); !reflect.DeepEqual(got, append([]Entity{}, ents...)) {
				t.Fatalf("Entities = %v, want %v", got, ents)
			}
			if got, want := w.Graph(), ref.graph(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Graph = %v, reference %v", got, want)
			}
			probes := append(append([]Entity{}, ents...), foreign...)
			for b := 0; b < 32; b++ {
				probes = append(probes, pick(byte(b)))
			}
			for i, e := range probes {
				same(t, "Exists", w.Exists(e), ref.exists(e))
				wantLabel := ""
				if ref.exists(e) {
					wantLabel = ref.labels[e.ID]
				}
				same(t, "Label", w.Label(e), wantLabel)
				rc := ref.contextOf(e)
				if rc != nil {
					same(t, "State", w.State(e), State(rc.real))
				} else {
					same(t, "State", w.State(e), ref.state(e))
				}
				c, ok := w.ContextOf(e)
				same(t, "ContextOf", ok, rc != nil)
				if ok {
					same(t, "ContextOf value", c, rc.real)
					same(t, "IsWatched", IsWatched(c), rc.watched)
				}
				same(t, "IsContextObject", w.IsContextObject(e), rc != nil && e.Kind == KindObject)
				g, inGroup := w.ReplicaGroup(e)
				wantG, wantIn := ref.replicaGroup(e)
				same(t, "ReplicaGroup", g, wantG)
				same(t, "ReplicaGroup ok", inGroup, wantIn)
				o := probes[(i*7+step)%len(probes)]
				same(t, "SameReplica", w.SameReplica(e, o), ref.sameReplica(e, o))
			}
		}
	})
}

func same[T comparable](t *testing.T, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: World says %v, reference says %v", what, got, want)
	}
}

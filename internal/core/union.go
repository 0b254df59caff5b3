package core

import "sort"

// UnionContext is an ordered union of contexts, after Plan 9's union
// directories: Lookup consults the layers in order and the first binding
// wins. Mutations go to the first layer (the "writable" layer by
// convention). Per-process naming schemes use unions to overlay a local
// tree on an inherited one without copying.
type UnionContext struct {
	layers []Context
}

var _ Context = (*UnionContext)(nil)

// Union builds a union context over the given layers (earlier layers
// shadow later ones). At least one layer is required; Union panics on an
// empty layer list, as that would be an unusable context.
func Union(layers ...Context) *UnionContext {
	if len(layers) == 0 {
		panic("core: Union requires at least one layer")
	}
	ls := make([]Context, len(layers))
	copy(ls, layers)
	return &UnionContext{layers: ls}
}

// Lookup implements Context: first layer with a binding wins.
func (u *UnionContext) Lookup(n Name) Entity {
	for _, l := range u.layers {
		if e := l.Lookup(n); !e.IsUndefined() {
			return e
		}
	}
	return Undefined
}

// Bind implements Context, writing to the first layer.
func (u *UnionContext) Bind(n Name, e Entity) {
	u.layers[0].Bind(n, e)
}

// Unbind implements Context, removing from the first layer only. A binding
// in a lower layer becomes visible again — union semantics, not deletion.
func (u *UnionContext) Unbind(n Name) {
	u.layers[0].Unbind(n)
}

// Names implements Context: the sorted union of all layers' names.
func (u *UnionContext) Names() []Name {
	seen := make(map[Name]bool)
	var out []Name
	for _, l := range u.layers {
		for _, n := range l.Names() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

package core

import (
	"hash/maphash"
	"strings"
)

// table is a directory's bindings: one open-addressed, linearly probed
// array of slots. A cold lookup touches the context, one slot (two share a
// cache line) and the key's bytes — a Go map adds its header and a control
// word, and above eight entries a directory and a table, each a dependent
// load. A slot carries seven bits of the name's hash as a tag, so a probe
// that meets another name compares one byte, not the key.
//
// Tables of up to eight slots may fill completely, as Go's small maps do;
// larger ones stay at most 7/8 full, so a probe run stays short. Deleting
// shifts the rest of the run back, so there are no tombstones and a miss
// stops at the first empty slot. The zero table is empty and usable.
type table struct {
	slots []slot // nil or a power of two long
	n     int    // occupied slots
}

// slot is one binding, 32 bytes. tag is zero when the slot is empty.
type slot struct {
	name Name
	id   EntityID
	kind Kind
	tag  uint8
}

// minSlots is a table's first size: the eight siblings of a leaf
// directory fit without a regrowth, as they do in one group of a Go map.
const minSlots = 8

// tableSeed is random per process: names arrive over the wire, and against
// a fixed seed a peer could pick names that all probe one run.
var tableSeed = maphash.MakeSeed()

// hashName returns n's hash and its tag: the top byte with its low bit set,
// so never zero, which marks an empty slot.
func hashName(n Name) (h uint64, tag uint8) {
	h = maphash.String(tableSeed, string(n))
	return h, uint8(h>>56) | 1
}

// find returns the slot holding n, or (when n is absent) the empty slot
// where it would go: -1 if the table is full or has no slots.
func (t *table) find(n Name, h uint64, tag uint8) (i int, found bool) {
	mask := len(t.slots) - 1
	i = int(h) & mask
	for range t.slots {
		s := &t.slots[i]
		if s.tag == 0 {
			return i, false
		}
		if s.tag == tag && s.name == n {
			return i, true
		}
		i = (i + 1) & mask
	}
	return -1, false
}

// get returns the entity n is bound to, or Undefined.
func (t *table) get(n Name) Entity {
	h, tag := hashName(n)
	if i, ok := t.find(n, h, tag); ok {
		return Entity{ID: t.slots[i].id, Kind: t.slots[i].kind}
	}
	return Undefined
}

// put binds n to e (e defined) and returns the previous binding. A new key
// is stored as its own compact copy: names usually arrive as substrings of
// something much larger (a spec line, a wire frame), which a stored
// substring would keep alive.
func (t *table) put(n Name, e Entity) (old Entity) {
	h, tag := hashName(n)
	i, ok := t.find(n, h, tag)
	if ok {
		s := &t.slots[i]
		old = Entity{ID: s.id, Kind: s.kind}
		s.id, s.kind = e.ID, e.Kind
		return old
	}
	if l := len(t.slots); i < 0 || (l > minSlots && t.n+1 > l-l/8) {
		t.grow()
		i, _ = t.find(n, h, tag)
	}
	t.slots[i] = slot{name: Name(strings.Clone(string(n))), id: e.ID, kind: e.Kind, tag: tag}
	t.n++
	return Undefined
}

// grow doubles the table (or makes its first slots) and reinserts every
// binding at its new home.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]slot, max(2*len(old), minSlots))
	for _, s := range old {
		if s.tag != 0 {
			h, _ := hashName(s.name)
			i, _ := t.find(s.name, h, s.tag) // absent: the first empty slot
			t.slots[i] = s
		}
	}
}

// del removes n's binding and returns it (Undefined: n was not bound).
// Each later slot of the run moves back into the hole unless the hole lies
// before its home, which keeps every key reachable from its home.
func (t *table) del(n Name) (old Entity) {
	h, tag := hashName(n)
	i, ok := t.find(n, h, tag)
	if !ok {
		return Undefined
	}
	old = Entity{ID: t.slots[i].id, Kind: t.slots[i].kind}
	t.slots[i] = slot{}
	t.n--
	mask := len(t.slots) - 1
	// The hole at i is empty, so even a full table's scan ends there.
	for j := (i + 1) & mask; t.slots[j].tag != 0; j = (j + 1) & mask {
		hj, _ := hashName(t.slots[j].name)
		// The slot stays when its home lies cyclically in (i, j].
		if home := int(hj) & mask; (j-home)&mask < (j-i)&mask {
			continue
		}
		t.slots[i], t.slots[j] = t.slots[j], slot{}
		i = j
	}
	return old
}

// each calls f for every binding, in slot order.
func (t *table) each(f func(Name, Entity)) {
	for _, s := range t.slots {
		if s.tag != 0 {
			f(s.name, Entity{ID: s.id, Kind: s.kind})
		}
	}
}

// clone returns an independent copy; keys are immutable and shared.
func (t *table) clone() table {
	return table{slots: append([]slot(nil), t.slots...), n: t.n}
}

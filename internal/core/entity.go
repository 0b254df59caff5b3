package core

import "strconv"

// EntityID identifies an entity within a World. ID 0 is reserved for the
// undefined entity (the model's ⊥E).
type EntityID uint64

// Kind classifies an entity as an activity (active) or an object (passive).
type Kind uint8

// Entity kinds. KindUndefined is the kind of the undefined entity only.
const (
	KindUndefined Kind = iota
	KindActivity
	KindObject
)

// Entity denotes an element of the model's entity set E = A ∪ O ∪ {⊥E}.
// The zero Entity is the undefined entity ⊥E, which every context maps
// unbound names to (contexts are total functions in the model).
type Entity struct {
	ID   EntityID
	Kind Kind
}

// Undefined is the undefined entity ⊥E.
var Undefined Entity

// IsUndefined reports whether e is the undefined entity.
func (e Entity) IsUndefined() bool { return e.ID == 0 }

// IsActivity reports whether e is an activity.
func (e Entity) IsActivity() bool { return e.Kind == KindActivity && e.ID != 0 }

// IsObject reports whether e is an object.
func (e Entity) IsObject() bool { return e.Kind == KindObject && e.ID != 0 }

// String renders the entity as a compact tag such as "a12" or "o7"; the
// undefined entity renders as "undef".
func (e Entity) String() string {
	switch {
	case e.IsUndefined():
		return "undef"
	case e.Kind == KindActivity:
		return "a" + strconv.FormatUint(uint64(e.ID), 10)
	default:
		return "o" + strconv.FormatUint(uint64(e.ID), 10)
	}
}

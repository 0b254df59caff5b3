package rules

import (
	"fmt"
	"sync"

	"namecoherence/internal/core"
)

// Source identifies where a name occurring in a computation came from —
// the three sources of Figure 1.
type Source int

// The three sources of names during a computation.
const (
	// SourceInternal marks a name generated internally within the activity
	// (including names obtained from a human user, which the paper models
	// as the user-interface activity generating the name).
	SourceInternal Source = iota + 1
	// SourceMessage marks a name received from another activity in a message.
	SourceMessage
	// SourceObject marks a name obtained from an object that contains it
	// (an embedded name).
	SourceObject
)

// String returns the source tag.
func (s Source) String() string {
	switch s {
	case SourceInternal:
		return "internal"
	case SourceMessage:
		return "message"
	case SourceObject:
		return "object"
	default:
		return "unknown"
	}
}

// Circumstance is an element of the meta context M: it describes the
// circumstances in which the name being resolved occurs.
type Circumstance struct {
	// Activity is the activity performing the resolution. Always set.
	Activity core.Entity
	// Sender is the activity the name was received from, when Origin is
	// SourceMessage.
	Sender core.Entity
	// Object is the object the name was obtained from, when Origin is
	// SourceObject.
	Object core.Entity
	// Trail is the access path (sequence of entities, outermost first) by
	// which Object was reached, when known. Scoped rules such as the
	// Algol-scope R(file) rule search it.
	Trail []core.Entity
	// Origin tells which of the three sources produced the name.
	Origin Source
}

// Internal builds the circumstance for a name generated within activity a.
func Internal(a core.Entity) Circumstance {
	return Circumstance{Activity: a, Origin: SourceInternal}
}

// Received builds the circumstance for a name activity a received in a
// message from sender.
func Received(a, sender core.Entity) Circumstance {
	return Circumstance{Activity: a, Sender: sender, Origin: SourceMessage}
}

// FromObject builds the circumstance for a name activity a obtained from
// object o, reached by the given trail.
func FromObject(a, o core.Entity, trail []core.Entity) Circumstance {
	return Circumstance{Activity: a, Object: o, Trail: trail, Origin: SourceObject}
}

// Rule is a closure mechanism: a resolution rule R ∈ [M → C] selecting the
// context in which a name is resolved.
type Rule interface {
	// Select returns the context in which to resolve a name occurring in
	// the given circumstances.
	Select(m Circumstance) (core.Context, error)
	// String returns the rule's conventional notation, e.g. "R(activity)".
	String() string
}

// NoContextError reports that a rule could not select a context for the
// entity the rule keys on.
type NoContextError struct {
	Entity core.Entity
	Rule   string
}

// Error implements error.
func (e *NoContextError) Error() string {
	return fmt.Sprintf("%s: no context associated with %v", e.Rule, e.Entity)
}

// Assoc is the table backing a rule of the form R(x): it associates entities
// with contexts. Assoc is safe for concurrent use.
type Assoc struct {
	mu       sync.RWMutex
	contexts map[core.EntityID]core.Context
}

// NewAssoc returns an empty association table.
func NewAssoc() *Assoc {
	return &Assoc{contexts: make(map[core.EntityID]core.Context)}
}

// Set associates entity e with context c.
func (a *Assoc) Set(e core.Entity, c core.Context) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.contexts[e.ID] = c
}

// Get returns the context associated with e.
func (a *Assoc) Get(e core.Entity) (core.Context, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.contexts[e.ID]
	return c, ok
}

// ActivityRule is R(activity): the common operating-system rule that
// resolves every name in the context of the activity performing the
// resolution, regardless of how or where the name was obtained (§3).
type ActivityRule struct {
	// Contexts maps each activity to its context.
	Contexts *Assoc
}

var _ Rule = (*ActivityRule)(nil)

// Select implements Rule.
func (r *ActivityRule) Select(m Circumstance) (core.Context, error) {
	c, ok := r.Contexts.Get(m.Activity)
	if !ok {
		return nil, &NoContextError{Entity: m.Activity, Rule: r.String()}
	}
	return c, nil
}

// String implements Rule.
func (r *ActivityRule) String() string { return "R(activity)" }

// SenderRule is R(sender): names received in a message are resolved in the
// context of the sender, giving coherence between sender and receiver for
// all names the sender sends (§4). Names from other sources fall back to
// the activity's own context.
type SenderRule struct {
	// Contexts maps each activity (senders and receivers alike) to its
	// context.
	Contexts *Assoc
}

var _ Rule = (*SenderRule)(nil)

// Select implements Rule.
func (r *SenderRule) Select(m Circumstance) (core.Context, error) {
	key := m.Activity
	if m.Origin == SourceMessage && !m.Sender.IsUndefined() {
		key = m.Sender
	}
	c, ok := r.Contexts.Get(key)
	if !ok {
		return nil, &NoContextError{Entity: key, Rule: r.String()}
	}
	return c, nil
}

// String implements Rule.
func (r *SenderRule) String() string { return "R(sender)" }

// ObjectRule is R(object): names obtained from an object are resolved in the
// context associated with that object, giving coherence among all activities
// for the names embedded in the object (§4). Names from other sources fall
// back to the activity's own context.
type ObjectRule struct {
	// ObjectContexts maps objects to the contexts their embedded names are
	// resolved in.
	ObjectContexts *Assoc
	// ActivityContexts serves names from the other two sources.
	ActivityContexts *Assoc
}

var _ Rule = (*ObjectRule)(nil)

// Select implements Rule.
func (r *ObjectRule) Select(m Circumstance) (core.Context, error) {
	if m.Origin == SourceObject && !m.Object.IsUndefined() {
		c, ok := r.ObjectContexts.Get(m.Object)
		if !ok {
			return nil, &NoContextError{Entity: m.Object, Rule: r.String()}
		}
		return c, nil
	}
	c, ok := r.ActivityContexts.Get(m.Activity)
	if !ok {
		return nil, &NoContextError{Entity: m.Activity, Rule: r.String()}
	}
	return c, nil
}

// String implements Rule.
func (r *ObjectRule) String() string { return "R(object)" }

// FixedRule resolves every name in one fixed context — the degenerate
// "single global context" closure of early distributed systems (§1).
type FixedRule struct {
	// Context is the single shared context.
	Context core.Context
	// Label is the notation reported by String; defaults to "R(global)".
	Label string
}

var _ Rule = (*FixedRule)(nil)

// Select implements Rule.
func (r *FixedRule) Select(Circumstance) (core.Context, error) {
	if r.Context == nil {
		return nil, &NoContextError{Rule: r.String()}
	}
	return r.Context, nil
}

// String implements Rule.
func (r *FixedRule) String() string {
	if r.Label == "" {
		return "R(global)"
	}
	return r.Label
}

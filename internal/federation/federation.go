package federation

import (
	"errors"
	"fmt"
	"sync"

	"namecoherence/internal/core"
	"namecoherence/internal/machine"
	"namecoherence/internal/sharedns"
)

// ErrUnknownSystem is returned for systems the federation does not contain.
var ErrUnknownSystem = errors.New("unknown system")

// Federation is a set of named autonomous systems sharing one world.
type Federation struct {
	// World is the common world.
	World *core.World

	mu      sync.Mutex
	systems map[string]*sharedns.System
	order   []string
}

// New returns an empty federation.
func New(w *core.World) *Federation {
	return &Federation{World: w, systems: make(map[string]*sharedns.System)}
}

// AddSystem registers an autonomous system under a federation-wide name.
func (f *Federation) AddSystem(name string, s *sharedns.System) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.systems[name]; ok {
		return fmt.Errorf("add system %q: already present", name)
	}
	f.systems[name] = s
	f.order = append(f.order, name)
	return nil
}

// System returns the named system.
func (f *Federation) System(name string) (*sharedns.System, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.systems[name]
	if !ok {
		return nil, fmt.Errorf("system %q: %w", name, ErrUnknownSystem)
	}
	return s, nil
}

// CrossLink extends the naming graphs of `fromSystem`'s clients with access
// to an entity of `toSystem`: the entity at remotePath inside one of
// toSystem's shared spaces (selected by spaceName) is attached under
// linkName in the local root of every client of fromSystem (Figure 5).
func (f *Federation) CrossLink(fromSystem, linkName, toSystem string, spaceName core.Name, remotePath string) error {
	from, err := f.System(fromSystem)
	if err != nil {
		return fmt.Errorf("cross-link: %w", err)
	}
	to, err := f.System(toSystem)
	if err != nil {
		return fmt.Errorf("cross-link: %w", err)
	}
	var target core.Entity
	for _, sp := range to.Spaces() {
		if sp.Name != spaceName {
			continue
		}
		_, p := core.SplitPathString(remotePath)
		e, err := sp.Tree.Lookup(p)
		if err != nil {
			return fmt.Errorf("cross-link target %q in space %q: %w", remotePath, spaceName, err)
		}
		target = e
		break
	}
	if target.IsUndefined() {
		return fmt.Errorf("cross-link: space %q of %q: %w", spaceName, toSystem, ErrUnknownSystem)
	}
	return from.AttachExistingSpace(core.Name(linkName), target)
}

// PrefixRule rewrites one absolute-name prefix into another.
type PrefixRule struct {
	// Src is the prefix a name must start with, e.g. "/users".
	Src core.Path
	// Dst is the replacement prefix, e.g. "/org2/users".
	Dst core.Path
}

// PrefixMapper is the human closure mechanism of §7: a table of prefix
// rewrites applied to names that cross a scope boundary. "This is
// acceptable if mapping is required infrequently and the mapping rules are
// simple and intuitive."
type PrefixMapper struct {
	mu    sync.Mutex
	rules []PrefixRule
}

// NewPrefixMapper returns an empty mapper.
func NewPrefixMapper() *PrefixMapper {
	return &PrefixMapper{}
}

// AddRule adds a rewrite from srcPrefix to dstPrefix (both absolute names).
func (pm *PrefixMapper) AddRule(srcPrefix, dstPrefix string) {
	_, src := core.SplitPathString(srcPrefix)
	_, dst := core.SplitPathString(dstPrefix)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.rules = append(pm.rules, PrefixRule{Src: src, Dst: dst})
}

// Map rewrites an absolute name using the longest matching source prefix.
// It reports whether any rule applied.
func (pm *PrefixMapper) Map(name string) (string, bool) {
	abs, p := core.SplitPathString(name)
	if !abs {
		return name, false
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	best := -1
	bestLen := -1
	for i, r := range pm.rules {
		if p.HasPrefix(r.Src) && len(r.Src) > bestLen {
			best, bestLen = i, len(r.Src)
		}
	}
	if best < 0 {
		return name, false
	}
	r := pm.rules[best]
	mapped := r.Dst.Join(p[len(r.Src):])
	return core.Separator + mapped.String(), true
}

// ExchangeOutcome reports what happened when a name crossed a boundary.
type ExchangeOutcome struct {
	// SenderEntity and ReceiverEntity are what the name denoted on each
	// side (Undefined if unresolvable).
	SenderEntity, ReceiverEntity core.Entity
	// SentName is the name actually delivered (after mapping, if any).
	SentName string
	// Mapped reports whether a prefix rule rewrote the name.
	Mapped bool
	// Coherent reports whether both sides denote the same entity.
	Coherent bool
}

// ExchangeName simulates sending the textual name from one process to
// another across a scope boundary. If pm is non-nil its rules are applied
// to the name in transit (the human mapping closure); otherwise the name
// crosses verbatim. The outcome records whether receiver and sender agree.
func ExchangeName(sender, receiver *machine.Process, name string, pm *PrefixMapper) ExchangeOutcome {
	out := ExchangeOutcome{SentName: name}
	out.SenderEntity, _ = sender.Resolve(name)
	if pm != nil {
		out.SentName, out.Mapped = pm.Map(name)
	}
	out.ReceiverEntity, _ = receiver.Resolve(out.SentName)
	out.Coherent = !out.SenderEntity.IsUndefined() && out.SenderEntity == out.ReceiverEntity
	return out
}

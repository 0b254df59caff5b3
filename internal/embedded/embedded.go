package embedded

import (
	"errors"
	"fmt"
	"strings"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// Errors returned by embedded-name resolution and assembly.
var (
	ErrEmptyChain = errors.New("empty scope chain")
	ErrCycle      = errors.New("include cycle")
	ErrTooDeep    = errors.New("include nesting too deep")
)

// ScopeError reports that no directory along the access path binds the
// first component of an embedded name.
type ScopeError struct {
	// Name is the embedded name that failed to resolve.
	Name core.Path
}

// Error implements error.
func (e *ScopeError) Error() string {
	return fmt.Sprintf("embedded name %q: no binding in any enclosing scope", e.Name)
}

// Chain builds a scope chain from a resolution starting point and the
// access trail returned by ResolveTrail: the chain runs from the outermost
// scope (the start directory) to the object itself.
func Chain(start core.Entity, trail []core.Entity) []core.Entity {
	chain := make([]core.Entity, 0, len(trail)+1)
	chain = append(chain, start)
	chain = append(chain, trail...)
	return chain
}

// Resolve resolves an embedded name per the Algol scope rule. The chain is
// the access path of the object the name was obtained from, outermost
// first, with the object itself last. The directories on the chain are
// searched from the innermost outward for one whose context binds the first
// component of the name; the name is then resolved relative to that
// directory.
//
// It returns the denoted entity together with the scope chain of the
// resolved entity (for recursive resolution of names embedded in it).
func Resolve(w *core.World, chain []core.Entity, name core.Path) (core.Entity, []core.Entity, error) {
	if len(chain) == 0 {
		return core.Undefined, nil, ErrEmptyChain
	}
	if !name.IsValid() {
		return core.Undefined, nil, fmt.Errorf("embedded name %q: %w", name, core.ErrEmptyPath)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		ctx, ok := w.ContextOf(chain[i])
		if !ok {
			continue // plain files are not scopes
		}
		if ctx.Lookup(name[0]).IsUndefined() {
			continue // no matching binding at this ancestor
		}
		e, trail, err := w.ResolveTrail(ctx, name)
		if err != nil {
			// The closest matching binding determines the scope; a failure
			// deeper in the name is a real resolution failure.
			return core.Undefined, nil, fmt.Errorf("embedded name %q at scope %d: %w", name, i, err)
		}
		newChain := make([]core.Entity, 0, i+1+len(trail))
		newChain = append(newChain, chain[:i+1]...)
		newChain = append(newChain, trail...)
		return e, newChain, nil
	}
	return core.Undefined, nil, &ScopeError{Name: name.Clone()}
}

// Assembler assembles structured objects: it concatenates a file's content
// with the content of all transitively embedded files, resolving embedded
// names with the Algol scope rule.
type Assembler struct {
	// World is the world the files live in.
	World *core.World
	// MaxDepth bounds include nesting; 0 means the default of 64.
	MaxDepth int
	// Sep separates concatenated components; defaults to "\n".
	Sep string
}

// Assemble assembles the structured object whose scope chain is given (the
// chain's last entity is the root file). Cycles among files are an error.
func (a *Assembler) Assemble(chain []core.Entity) (string, error) {
	if len(chain) == 0 {
		return "", ErrEmptyChain
	}
	maxDepth := a.MaxDepth
	if maxDepth == 0 {
		maxDepth = 64
	}
	sep := a.Sep
	if sep == "" {
		sep = "\n"
	}
	var sb strings.Builder
	onStack := make(map[core.EntityID]bool)
	err := a.assemble(chain, 0, maxDepth, sep, onStack, &sb)
	return sb.String(), err
}

func (a *Assembler) assemble(chain []core.Entity, depth, maxDepth int, sep string, onStack map[core.EntityID]bool, sb *strings.Builder) error {
	if depth > maxDepth {
		return fmt.Errorf("depth %d: %w", depth, ErrTooDeep)
	}
	file := chain[len(chain)-1]
	if onStack[file.ID] {
		return fmt.Errorf("file %v: %w", file, ErrCycle)
	}
	data, ok := a.World.State(file).(*dirtree.FileData)
	if !ok {
		return fmt.Errorf("assemble %v: not a regular file", file)
	}
	onStack[file.ID] = true
	defer delete(onStack, file.ID)

	if sb.Len() > 0 {
		sb.WriteString(sep)
	}
	sb.WriteString(data.Content)
	for _, inc := range data.Embedded {
		_, incChain, err := Resolve(a.World, chain, inc)
		if err != nil {
			return fmt.Errorf("assemble %v: %w", file, err)
		}
		if err := a.assemble(incChain, depth+1, maxDepth, sep, onStack, sb); err != nil {
			return err
		}
	}
	return nil
}

package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/machine"
	"namecoherence/internal/perproc"
)

// e13InitialAttaches is how many subsystems E13's parent has before
// forking.
const e13InitialAttaches = 4

// e13MutationSweep is how many post-fork parent attaches E13 applies per
// row.
var e13MutationSweep = []int{0, 2, 4, 8}

// e13 measures context divergence after fork under copy vs shared (union)
// namespace semantics. It quantifies §5.1's "a parent and a child have
// coherence for all names until one of them modifies its context": after a
// copy-fork, every parent context mutation erodes parent/child coherence,
// while a shared (union) fork tracks the parent and stays fully coherent.
func e13() (*Table, error) {
	t := &Table{
		Header: []string{"post-fork attaches", "copy-fork coherence", "shared-fork coherence"},
		Notes: []string{
			"§5.1: copy-at-fork gives coherence only until the contexts diverge;",
			"union namespaces (Plan 9 style) keep the child's view tracking the",
			"parent, at the price of sharing mutations.",
		},
	}
	for _, mutations := range e13MutationSweep {
		w := core.NewWorld()
		m := machine.New(w, "m")
		parent, err := perproc.New(m, "parent")
		if err != nil {
			return nil, err
		}
		attach := func(i int) (core.Path, error) {
			sub := dirtree.New(w, fmt.Sprintf("sub%d", i))
			p := core.ParsePath("files/f")
			if _, err := sub.Create(p, "x"); err != nil {
				return nil, err
			}
			name := core.Name(fmt.Sprintf("sub%d", i))
			if err := parent.Attach(nil, name, sub.Root); err != nil {
				return nil, err
			}
			return core.PathOf(name).Join(p), nil
		}

		var probes []core.Path
		for i := 0; i < e13InitialAttaches; i++ {
			p, err := attach(i)
			if err != nil {
				return nil, err
			}
			probes = append(probes, p)
		}
		copied, err := parent.Fork("copied")
		if err != nil {
			return nil, err
		}
		shared, err := parent.ForkShared("shared")
		if err != nil {
			return nil, err
		}
		for i := 0; i < mutations; i++ {
			p, err := attach(e13InitialAttaches + i)
			if err != nil {
				return nil, err
			}
			probes = append(probes, p)
		}

		agree := func(child *perproc.Proc) float64 {
			ok := 0
			for _, p := range probes {
				want, err1 := parent.Resolve("/" + p.String())
				got, err2 := child.Resolve("/" + p.String())
				if err1 == nil && err2 == nil && want == got {
					ok++
				}
			}
			return float64(ok) / float64(len(probes))
		}
		t.AddRow(itoa(mutations), f2(agree(copied)), f2(agree(shared)))
	}
	return t, nil
}

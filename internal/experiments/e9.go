package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/sharedns"
)

// e9ClientCounts is the sweep of system sizes in E9.
var e9ClientCounts = []int{2, 4, 8, 16}

// e9 (§5) sweeps the number of clients and reports strict vs weak
// coherence for replicated command names: strict coherence fails at any
// scale, weak coherence holds at every scale — the paper's point that
// strict coherence is "unnecessarily restrictive" for replicated objects.
func e9() (*Table, error) {
	// commands is the number of replicated commands.
	const commands = 10
	t := &Table{
		Header: []string{"clients", "strict-degree", "weak-degree"},
		Notes: []string{
			"paper §5: for replicated objects, coherence as defined is unnecessarily",
			"restrictive; weak coherence (same replica group) is sufficient and",
			"holds independent of scale.",
		},
	}
	for _, n := range e9ClientCounts {
		w := core.NewWorld()
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%02d", i)
		}
		s, err := sharedns.NewSystem(w, names...)
		if err != nil {
			return nil, err
		}
		var paths []core.Path
		for c := 0; c < commands; c++ {
			p := fmt.Sprintf("/bin/cmd%02d", c)
			if _, err := s.ReplicateCommand(p, "#!"); err != nil {
				return nil, err
			}
			_, pp := core.SplitPathString(p)
			paths = append(paths, pp)
		}
		var acts []core.Entity
		for _, cn := range names {
			p, err := s.Spawn(cn, "probe")
			if err != nil {
				return nil, err
			}
			acts = append(acts, p.Activity)
		}
		rep := coherence.Measure(w, s.Registry.ResolveAbs, acts, paths)
		t.AddRow(itoa(n), f2(rep.StrictDegree()), f2(rep.WeakDegree()))
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/sharedns"
)

// E9Config parameterizes experiment E9 (§5): weak coherence for replicated
// objects as the client count grows.
type E9Config struct {
	// ClientCounts is the sweep of system sizes.
	ClientCounts []int
	// Commands is the number of replicated commands.
	Commands int
}

// DefaultE9 returns the standard configuration.
func DefaultE9() E9Config {
	return E9Config{ClientCounts: []int{2, 4, 8, 16}, Commands: 10}
}

// E9 sweeps the number of clients and reports strict vs weak coherence for
// replicated command names: strict coherence fails at any scale, weak
// coherence holds at every scale — the paper's point that strict coherence
// is "unnecessarily restrictive" for replicated objects.
func E9(cfg E9Config) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  title("E9"),
		Header: []string{"clients", "strict-degree", "weak-degree"},
		Notes: []string{
			"paper §5: for replicated objects, coherence as defined is unnecessarily",
			"restrictive; weak coherence (same replica group) is sufficient and",
			"holds independent of scale.",
		},
	}
	for _, n := range cfg.ClientCounts {
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
		for c := 0; c < cfg.Commands; c++ {
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

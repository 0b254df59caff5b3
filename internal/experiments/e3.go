package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/machine"
	"namecoherence/internal/newcastle"
)

// E3Config parameterizes experiment E3 (Figure 3, §5.1): the Newcastle
// Connection.
type E3Config struct {
	// Machines is the number of machines composed under the super-root.
	Machines int
	// FilesPerMachine is the number of same-textual-name files created on
	// every machine.
	FilesPerMachine int
	// ProcsPerMachine is the number of probe processes per machine.
	ProcsPerMachine int
}

// DefaultE3 returns the Figure 3 setup (three machines).
func DefaultE3() E3Config {
	return E3Config{Machines: 3, FilesPerMachine: 20, ProcsPerMachine: 2}
}

// buildE3 constructs the system plus probe processes.
func buildE3(cfg E3Config) (*core.World, *newcastle.System, [][]*machine.Process, error) {
	w := core.NewWorld()
	names := make([]string, cfg.Machines)
	for i := range names {
		names[i] = fmt.Sprintf("unix%d", i+1)
	}
	s, err := newcastle.NewSystem(w, names...)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, mn := range names {
		m, err := s.Machine(mn)
		if err != nil {
			return nil, nil, nil, err
		}
		for f := 0; f < cfg.FilesPerMachine; f++ {
			p := core.ParsePath(fmt.Sprintf("shared/f%03d", f))
			if _, err := m.Tree.Create(p, "content@"+mn); err != nil {
				return nil, nil, nil, err
			}
		}
		if _, err := m.Tree.Create(core.ParsePath("only/"+mn), "local"); err != nil {
			return nil, nil, nil, err
		}
	}
	procs := make([][]*machine.Process, cfg.Machines)
	for i, mn := range names {
		for k := 0; k < cfg.ProcsPerMachine; k++ {
			p, err := s.Spawn(mn, fmt.Sprintf("probe%d", k))
			if err != nil {
				return nil, nil, nil, err
			}
			procs[i] = append(procs[i], p)
		}
	}
	return w, s, procs, nil
}

// E3 measures the Newcastle Connection: same-machine coherence, cross-
// machine incoherence for "/"-rooted names, full coherence for names that
// climb through the super-root, and the two remote-execution root policies.
func E3(cfg E3Config) (*Table, error) {
	w, s, procs, err := buildE3(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E3",
		Title:  title("E3"),
		Header: []string{"probe", "strict-degree"},
		Notes: []string{
			"paper §5.1: only processes with the same root binding have coherence for",
			"names starting with '/'; there is incoherence across machine boundaries;",
			"'..' names through the super-root and the root-of-invoker remote-exec",
			"policy restore coherence.",
		},
	}

	localPaths := make([]core.Path, 0, cfg.FilesPerMachine)
	for f := 0; f < cfg.FilesPerMachine; f++ {
		localPaths = append(localPaths, core.ParsePath(fmt.Sprintf("shared/f%03d", f)))
	}

	// Same machine: all probes on machine 0.
	var sameActs []core.Entity
	for _, p := range procs[0] {
		sameActs = append(sameActs, p.Activity)
	}
	rep := coherence.Measure(w, s.Registry.ResolveAbs, sameActs, localPaths)
	t.AddRow("/ names, same machine", f2(rep.StrictDegree()))

	// Across machines: one process from each machine.
	var crossActs []core.Entity
	for i := range procs {
		crossActs = append(crossActs, procs[i][0].Activity)
	}
	rep = coherence.Measure(w, s.Registry.ResolveAbs, crossActs, localPaths)
	t.AddRow("/ names, across machines", f2(rep.StrictDegree()))

	// Super-root-relative names: coherent everywhere.
	superPaths := make([]core.Path, 0, len(s.MachineNames()))
	for _, mn := range s.MachineNames() {
		superPaths = append(superPaths, core.ParsePath("../"+mn+"/shared/f000"))
	}
	rep = coherence.Measure(w, s.Registry.ResolveAbs, crossActs, superPaths)
	t.AddRow("../machine/... names, across machines", f2(rep.StrictDegree()))

	// Remote execution, both policies.
	parent := procs[0][0]
	target := s.MachineNames()[1]
	for _, pol := range []newcastle.RootPolicy{newcastle.RootOfInvoker, newcastle.RootOfExecutor} {
		child, err := s.RemoteExec(parent, target, "rx", pol)
		if err != nil {
			return nil, err
		}
		rep := coherence.Measure(w, s.Registry.ResolveAbs,
			[]core.Entity{parent.Activity, child.Activity}, localPaths)
		t.AddRow("remote exec params, "+pol.String(), f2(rep.StrictDegree()))

		_, errLocal := child.Resolve("/only/" + target)
		visible := 0.0
		if errLocal == nil {
			visible = 1.0
		}
		t.AddRow("remote exec executor-local access, "+pol.String(), f2(visible))
	}
	return t, nil
}

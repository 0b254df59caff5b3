package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/machine"
	"namecoherence/internal/newcastle"
)

// E3 runs the Figure 3 setup (three machines).
const (
	// e3Machines is the number of machines composed under the super-root.
	e3Machines = 3
	// e3FilesPerMachine is the number of same-textual-name files created
	// on every machine.
	e3FilesPerMachine = 20
	// e3ProcsPerMachine is the number of probe processes per machine.
	e3ProcsPerMachine = 2
)

// buildE3 constructs the system plus probe processes.
func buildE3() (*core.World, *newcastle.System, [][]*machine.Process, error) {
	w := core.NewWorld()
	names := make([]string, e3Machines)
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
		for f := 0; f < e3FilesPerMachine; f++ {
			p := core.ParsePath(fmt.Sprintf("shared/f%03d", f))
			if _, err := m.Tree.Create(p, "content@"+mn); err != nil {
				return nil, nil, nil, err
			}
		}
		if _, err := m.Tree.Create(core.ParsePath("only/"+mn), "local"); err != nil {
			return nil, nil, nil, err
		}
	}
	procs := make([][]*machine.Process, e3Machines)
	for i, mn := range names {
		for k := 0; k < e3ProcsPerMachine; k++ {
			p, err := s.Spawn(mn, fmt.Sprintf("probe%d", k))
			if err != nil {
				return nil, nil, nil, err
			}
			procs[i] = append(procs[i], p)
		}
	}
	return w, s, procs, nil
}

// e3 (Figure 3, §5.1) measures the Newcastle Connection: same-machine
// coherence, cross-machine incoherence for "/"-rooted names, full
// coherence for names that climb through the super-root, and the two
// remote-execution root policies.
func e3() (*Table, error) {
	w, s, procs, err := buildE3()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Header: []string{"probe", "strict-degree"},
		Notes: []string{
			"paper §5.1: only processes with the same root binding have coherence for",
			"names starting with '/'; there is incoherence across machine boundaries;",
			"'..' names through the super-root and the root-of-invoker remote-exec",
			"policy restore coherence.",
		},
	}

	localPaths := make([]core.Path, 0, e3FilesPerMachine)
	for f := 0; f < e3FilesPerMachine; f++ {
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

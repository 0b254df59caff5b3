package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/sharedns"
)

// e4 (Figure 4, §5.2) measures the shared naming graph: names under the
// shared attachment are coherent among all clients, local names are not,
// replicated commands are weakly coherent, and DCE-style cell-relative
// names are coherent only within a cell.
func e4() (*Table, error) {
	const (
		// clients is the number of client subsystems, split into two DCE
		// cells of half each.
		clients = 4
		half    = clients / 2
		// sharedFiles, localFiles, replicatedCommands size the name classes.
		sharedFiles, localFiles, replicatedCommands = 20, 20, 10
	)
	w := core.NewWorld()
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("ws%d", i+1)
	}
	s, err := sharedns.NewSystem(w, names...)
	if err != nil {
		return nil, err
	}
	vice, err := s.AttachSpace(sharedns.ViceName)
	if err != nil {
		return nil, err
	}
	var vicePaths []core.Path
	for i := 0; i < sharedFiles; i++ {
		p := core.ParsePath(fmt.Sprintf("usr/s%03d", i))
		if _, err := vice.Tree.Create(p, "shared"); err != nil {
			return nil, err
		}
		vicePaths = append(vicePaths, core.PathOf(sharedns.ViceName).Join(p))
	}

	var localPaths []core.Path
	for i := 0; i < localFiles; i++ {
		p := core.ParsePath(fmt.Sprintf("home/l%03d", i))
		localPaths = append(localPaths, p)
		for _, cn := range names {
			c, _ := s.Client(cn)
			if _, err := c.Machine.Tree.Create(p, "local@"+cn); err != nil {
				return nil, err
			}
		}
	}

	var binPaths []core.Path
	for i := 0; i < replicatedCommands; i++ {
		p := fmt.Sprintf("/bin/cmd%03d", i)
		if _, err := s.ReplicateCommand(p, "#!cmd"); err != nil {
			return nil, err
		}
		_, pp := core.SplitPathString(p)
		binPaths = append(binPaths, pp)
	}

	// Two DCE cells over the client halves, both attached at "/.:".
	cellA, err := s.AttachSpace(sharedns.CellName, names[:half]...)
	if err != nil {
		return nil, err
	}
	if _, err := cellA.Tree.Create(core.ParsePath("svc/db"), "db@A"); err != nil {
		return nil, err
	}
	cellB, err := s.AttachSpace(sharedns.CellName, names[half:]...)
	if err != nil {
		return nil, err
	}
	if _, err := cellB.Tree.Create(core.ParsePath("svc/db"), "db@B"); err != nil {
		return nil, err
	}
	cellPaths := []core.Path{core.PathOf(sharedns.CellName, "svc", "db")}

	var allActs []core.Entity
	for _, cn := range names {
		p, err := s.Spawn(cn, "probe")
		if err != nil {
			return nil, err
		}
		allActs = append(allActs, p.Activity)
	}

	t := &Table{
		Header: []string{"name class", "strict-degree", "weak-degree"},
		Notes: []string{
			"paper §5.2: coherence for names in the shared graph and weak coherence",
			"for replicated commands; incoherence for local names and for names",
			"relative to the cell context across cells.",
		},
	}
	add := func(label string, acts []core.Entity, paths []core.Path) {
		rep := coherence.Measure(w, s.Registry.ResolveAbs, acts, paths)
		t.AddRow(label, f2(rep.StrictDegree()), f2(rep.WeakDegree()))
	}
	add("/vice (shared graph), all clients", allActs, vicePaths)
	add("local names, all clients", allActs, localPaths)
	add("replicated /bin, all clients", allActs, binPaths)
	add("/.: cell names, within cell", allActs[:half], cellPaths)
	add("/.: cell names, across cells", []core.Entity{allActs[0], allActs[half]}, cellPaths)
	return t, nil
}

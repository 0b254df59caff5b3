package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/machine"
	"namecoherence/internal/perproc"
)

// E8Config parameterizes experiment E8 (§6 approach II, §7): per-process
// namespaces and remote execution.
type E8Config struct {
	// Subsystems is the number of subsystem trees the parent attaches.
	Subsystems int
	// FilesPerSubsystem sizes each subsystem tree.
	FilesPerSubsystem int
}

// DefaultE8 returns the standard configuration.
func DefaultE8() E8Config {
	return E8Config{Subsystems: 3, FilesPerSubsystem: 10}
}

// E8 measures parameter coherence for remote execution with per-process
// namespaces against the per-machine baseline, and executor-local access
// for both.
func E8(cfg E8Config) (*Table, error) {
	w := core.NewWorld()
	m1 := machine.New(w, "m1")
	m2 := machine.New(w, "m2")
	if _, err := m2.Tree.Create(core.ParsePath("data/local"), "on m2"); err != nil {
		return nil, err
	}

	parent, err := perproc.New(m1, "parent")
	if err != nil {
		return nil, err
	}
	var paramPaths []core.Path
	for s := 0; s < cfg.Subsystems; s++ {
		sub := dirtree.New(w, fmt.Sprintf("sub%d", s))
		for f := 0; f < cfg.FilesPerSubsystem; f++ {
			p := core.ParsePath(fmt.Sprintf("files/f%03d", f))
			if _, err := sub.Create(p, "payload"); err != nil {
				return nil, err
			}
			paramPaths = append(paramPaths, core.PathOf(core.Name(fmt.Sprintf("sub%d", s))).Join(p))
		}
		if err := parent.Attach(nil, core.Name(fmt.Sprintf("sub%d", s)), sub.Root); err != nil {
			return nil, err
		}
	}

	child, err := perproc.RemoteExec(parent, m2, "child")
	if err != nil {
		return nil, err
	}
	baseline := m2.Spawn("baseline")

	reg := machine.NewRegistry()
	reg.Add(parent.Process, child.Process, baseline)

	t := &Table{
		ID:     "E8",
		Title:  title("E8"),
		Header: []string{"scheme", "param-coherence", "executor-local access"},
		Notes: []string{
			"paper §6 II: with a per-process view, the remotely executing process",
			"uses the parent's arranged context — names passed as parameters are",
			"coherent without global names, and /local still reaches the executor.",
		},
	}

	measure := func(childAct core.Entity) float64 {
		rep := coherence.Measure(w, reg.ResolveAbs,
			[]core.Entity{parent.Activity(), childAct}, paramPaths)
		return rep.StrictDegree()
	}
	localAccess := func(p *machine.Process, name string) string {
		if _, err := p.Resolve(name); err == nil {
			return "1.00"
		}
		return "0.00"
	}

	t.AddRow("per-process remote exec",
		f2(measure(child.Activity())),
		localAccess(child.Process, "/local/data/local"))
	t.AddRow("per-machine baseline",
		f2(measure(baseline.Activity)),
		localAccess(baseline, "/data/local"))
	return t, nil
}

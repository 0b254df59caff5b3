package experiments

import (
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
	"namecoherence/internal/workload"
)

// e1 (Figure 1 + §4) measures the strict coherence degree for every
// (source, rule) cell. The paper's §4 analysis predicts: under R(activity)
// only global names are coherent regardless of source; R(sender) makes
// message-borne names fully coherent; R(object) makes embedded names fully
// coherent; a single global context is coherent for everything.
func e1() (*Table, error) {
	const (
		// activities is the number of activities probing each name.
		activities = 8
		// names is the vocabulary size.
		names = 200
		// sharedFrac is the fraction of names that are global (bound to the
		// same entity in every activity context).
		sharedFrac = 0.25
		// seed drives the workload generator.
		seed = 1
	)
	gen := workload.New(seed)
	w := core.NewWorld()
	pop := gen.Population(w, activities, names, sharedFrac)
	obj, objAssoc := gen.ObjectContext(w, pop, "doc")
	sender := pop.Activities[0]

	globalCtx, _ := pop.Contexts.Get(sender) // one context shared by all
	ruleSet := []rules.Rule{
		&rules.ActivityRule{Contexts: pop.Contexts},
		&rules.SenderRule{Contexts: pop.Contexts},
		&rules.ObjectRule{ObjectContexts: objAssoc, ActivityContexts: pop.Contexts},
		&rules.FixedRule{Context: globalCtx},
	}
	sources := []struct {
		name string
		circ func(a core.Entity) rules.Circumstance
	}{
		{name: "internal", circ: rules.Internal},
		{name: "message", circ: func(a core.Entity) rules.Circumstance {
			return rules.Received(a, sender)
		}},
		{name: "object", circ: func(a core.Entity) rules.Circumstance {
			return rules.FromObject(a, obj, nil)
		}},
	}

	t := &Table{
		Header: append([]string{"rule"}, "internal", "message", "object"),
		Notes: []string{
			"paper §4: R(activity) coheres only for global names; R(sender) coheres",
			"message-borne names; R(object) coheres embedded names; a global context",
			"coheres everything.",
		},
	}
	probes := pop.ProbePaths()
	for _, rl := range ruleSet {
		resolver := rules.NewResolver(w, rl)
		row := []string{rl.String()}
		for _, src := range sources {
			resolve := func(a core.Entity, p core.Path) (core.Entity, error) {
				return resolver.Resolve(src.circ(a), p)
			}
			rep := coherence.Measure(w, resolve, pop.Activities, probes)
			row = append(row, f2(rep.StrictDegree()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

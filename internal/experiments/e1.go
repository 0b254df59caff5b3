package experiments

import (
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
	"namecoherence/internal/workload"
)

// E1Config parameterizes experiment E1 (Figure 1 + §4): the coherence
// degree obtained for each combination of name source and resolution rule.
type E1Config struct {
	// Activities is the number of activities probing each name.
	Activities int
	// Names is the vocabulary size.
	Names int
	// SharedFrac is the fraction of names that are global (bound to the
	// same entity in every activity context).
	SharedFrac float64
	// Seed drives the workload generator.
	Seed int64
}

// DefaultE1 returns the standard configuration.
func DefaultE1() E1Config {
	return E1Config{Activities: 8, Names: 200, SharedFrac: 0.25, Seed: 1}
}

// E1 measures the strict coherence degree for every (source, rule) cell.
// The paper's §4 analysis predicts: under R(activity) only global names are
// coherent regardless of source; R(sender) makes message-borne names fully
// coherent; R(object) makes embedded names fully coherent; a single global
// context is coherent for everything.
func E1(cfg E1Config) *Table {
	gen := workload.New(cfg.Seed)
	w := core.NewWorld()
	pop := gen.Population(w, cfg.Activities, cfg.Names, cfg.SharedFrac)
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
		ID:     "E1",
		Title:  title("E1"),
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
	return t
}

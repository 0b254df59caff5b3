package experiments

import (
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
	"namecoherence/internal/workload"
)

// E2Config parameterizes experiment E2 (Figure 2): how the coherent
// fraction depends on the overlap between contexts, for each context-
// selection choice.
type E2Config struct {
	// Activities and Names size the population.
	Activities, Names int
	// Overlaps are the shared-name fractions swept.
	Overlaps []float64
	// Seed drives the generator.
	Seed int64
}

// DefaultE2 returns the standard configuration.
func DefaultE2() E2Config {
	return E2Config{
		Activities: 6,
		Names:      200,
		Overlaps:   []float64{0, 0.25, 0.5, 0.75, 1},
		Seed:       2,
	}
}

// E2 sweeps the context overlap g and reports the coherent fraction for
// names exchanged in messages under R(receiver) vs R(sender), and for
// names obtained from an object under R(activity) vs R(object). Figure 2's
// point measured: selecting the receiver's (or accessor's) context yields
// coherence only for the overlapping (global) names — degree g — while
// selecting the sender's (or object's) context yields full coherence.
func E2(cfg E2Config) *Table {
	t := &Table{
		ID:    "E2",
		Title: title("E2"),
		Header: []string{
			"overlap",
			"msg/R(receiver)", "msg/R(sender)",
			"obj/R(activity)", "obj/R(object)",
		},
		Notes: []string{
			"paper Fig.2: resolving in the receiver's (accessor's) context is coherent",
			"only for global names; resolving in the sender's (object's) context is",
			"coherent for all names exchanged (embedded).",
		},
	}
	for i, g := range cfg.Overlaps {
		gen := workload.New(cfg.Seed + int64(i))
		w := core.NewWorld()
		pop := gen.Population(w, cfg.Activities, cfg.Names, g)
		obj, objAssoc := gen.ObjectContext(w, pop, "doc")
		sender := pop.Activities[0]
		probes := pop.ProbePaths()

		receiverRule := rules.NewResolver(w, &rules.ActivityRule{Contexts: pop.Contexts})
		senderRule := rules.NewResolver(w, &rules.SenderRule{Contexts: pop.Contexts})
		objectRule := rules.NewResolver(w, &rules.ObjectRule{
			ObjectContexts:   objAssoc,
			ActivityContexts: pop.Contexts,
		})

		msgCirc := func(a core.Entity) rules.Circumstance { return rules.Received(a, sender) }
		objCirc := func(a core.Entity) rules.Circumstance { return rules.FromObject(a, obj, nil) }

		cell := func(r *rules.Resolver, circ func(core.Entity) rules.Circumstance) string {
			resolve := func(a core.Entity, p core.Path) (core.Entity, error) {
				return r.Resolve(circ(a), p)
			}
			return f2(coherence.Measure(w, resolve, pop.Activities, probes).StrictDegree())
		}
		t.AddRow(
			f2(g),
			cell(receiverRule, msgCirc),
			cell(senderRule, msgCirc),
			cell(receiverRule, objCirc),
			cell(objectRule, objCirc),
		)
	}
	return t
}

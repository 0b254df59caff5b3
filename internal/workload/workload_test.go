package workload

import (
	"testing"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
)

func TestNamesDistinct(t *testing.T) {
	g := New(1)
	names := g.Names(100, "x")
	seen := make(map[core.Name]bool)
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	za, zb := a.Zipf(50, 10), b.Zipf(50, 10)
	for i := range za {
		if za[i] != zb[i] {
			t.Fatal("same seed, different Zipf samples")
		}
	}
	if a.Intn(1000) != b.Intn(1000) {
		t.Fatal("same seed, different ints")
	}
}

func TestZipfRange(t *testing.T) {
	g := New(7)
	samples := g.Zipf(1000, 50)
	if len(samples) != 1000 {
		t.Fatalf("len = %d", len(samples))
	}
	for _, s := range samples {
		if s < 0 || s >= 50 {
			t.Fatalf("sample %d out of range", s)
		}
	}
	// Zipf should be skewed: index 0 must be the most common.
	counts := make(map[int]int)
	for _, s := range samples {
		counts[s]++
	}
	for i, c := range counts {
		if i != 0 && c > counts[0] {
			t.Fatalf("index %d more common (%d) than index 0 (%d)", i, c, counts[0])
		}
	}
}

func TestPopulationSharedFraction(t *testing.T) {
	g := New(1)
	w := core.NewWorld()
	pop := g.Population(w, 4, 100, 0.3)
	if len(pop.SharedNames) != 30 || len(pop.LocalNames) != 70 {
		t.Fatalf("partition = %d/%d", len(pop.SharedNames), len(pop.LocalNames))
	}
	if len(pop.Activities) != 4 {
		t.Fatalf("activities = %d", len(pop.Activities))
	}
	if len(pop.ProbePaths()) != 100 {
		t.Fatalf("probes = %d", len(pop.ProbePaths()))
	}
}

func TestPopulationCoherenceMatchesFraction(t *testing.T) {
	g := New(1)
	w := core.NewWorld()
	pop := g.Population(w, 5, 200, 0.25)
	r := rules.NewResolver(w, &rules.ActivityRule{Contexts: pop.Contexts})
	resolve := func(a core.Entity, p core.Path) (core.Entity, error) {
		return r.Resolve(rules.Internal(a), p)
	}
	rep := coherence.Measure(w, resolve, pop.Activities, pop.ProbePaths())
	if rep.StrictDegree() != 0.25 {
		t.Fatalf("StrictDegree = %v, want 0.25", rep.StrictDegree())
	}
	if rep.Incoherent != 150 {
		t.Fatalf("Incoherent = %d, want 150", rep.Incoherent)
	}
}

func TestPopulationClamping(t *testing.T) {
	g := New(1)
	w := core.NewWorld()
	if pop := g.Population(w, 2, 10, -1); len(pop.SharedNames) != 0 {
		t.Fatal("negative fraction not clamped")
	}
	if pop := g.Population(w, 2, 10, 2); len(pop.LocalNames) != 0 {
		t.Fatal("fraction > 1 not clamped")
	}
}

func TestObjectContext(t *testing.T) {
	g := New(1)
	w := core.NewWorld()
	pop := g.Population(w, 3, 10, 0.5)
	obj, assoc := g.ObjectContext(w, pop, "doc")
	if !obj.IsObject() {
		t.Fatal("not an object")
	}
	ctx, ok := assoc.Get(obj)
	if !ok {
		t.Fatal("no context associated")
	}
	if n := len(ctx.Names()); n != 10 {
		t.Fatalf("object context has %d bindings, want 10", n)
	}

	// Under R(object), embedded names are coherent for all activities.
	r := rules.NewResolver(w, &rules.ObjectRule{
		ObjectContexts:   assoc,
		ActivityContexts: pop.Contexts,
	})
	resolve := func(a core.Entity, p core.Path) (core.Entity, error) {
		return r.Resolve(rules.FromObject(a, obj, nil), p)
	}
	rep := coherence.Measure(w, resolve, pop.Activities, pop.ProbePaths())
	if rep.StrictDegree() != 1 {
		t.Fatalf("R(object) degree = %v, want 1", rep.StrictDegree())
	}
}

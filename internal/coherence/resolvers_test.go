package coherence

import (
	"errors"
	"testing"

	"namecoherence/internal/core"
)

// mapResolver is a Resolver over a fixed table, standing in for one
// client's view of a name service.
type mapResolver struct {
	table map[string]core.Entity
}

func (m *mapResolver) Resolve(p core.Path) (core.Entity, error) {
	if e, ok := m.table[p.String()]; ok {
		return e, nil
	}
	return core.Undefined, errors.New("not bound")
}

func TestMeasureResolvers(t *testing.T) {
	w := core.NewWorld()
	shared := w.NewObject("shared")
	r1a := w.NewObject("bin-1")
	r2a := w.NewObject("bin-2")
	if _, err := w.NewReplicaGroup(r1a, r2a); err != nil {
		t.Fatal(err)
	}

	clients := []Resolver{
		&mapResolver{table: map[string]core.Entity{
			"vice/g": shared, "bin": r1a, "local/x": w.NewObject("x1"),
		}},
		&mapResolver{table: map[string]core.Entity{
			"vice/g": shared, "bin": r2a, "local/x": w.NewObject("x2"),
		}},
	}
	paths := []core.Path{
		core.ParsePath("vice/g"),  // same entity for both -> coherent
		core.ParsePath("bin"),     // distinct replicas -> weak
		core.ParsePath("local/x"), // distinct plain objects -> incoherent
		core.ParsePath("ghost"),   // neither resolves -> vacuous
	}
	rep := MeasureResolvers(w, clients, paths)
	if rep.Total != 4 || rep.Coherent != 1 || rep.Weak != 1 || rep.Incoherent != 1 || rep.Vacuous != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := rep.StrictDegree(); got != 1.0/3.0 {
		t.Fatalf("StrictDegree = %v", got)
	}
}

func TestMeasureResolversErrorIsDisagreement(t *testing.T) {
	w := core.NewWorld()
	o := w.NewObject("o")
	clients := []Resolver{
		&mapResolver{table: map[string]core.Entity{"a": o}},
		&mapResolver{table: map[string]core.Entity{}}, // resolution error
	}
	rep := MeasureResolvers(w, clients, []core.Path{core.ParsePath("a")})
	if rep.Incoherent != 1 {
		t.Fatalf("resolving vs. erroring must disagree; report = %+v", rep)
	}
}

func TestClassifyMatchesCheckName(t *testing.T) {
	w, acts, resolve := fixture(t)
	for _, name := range []string{"g", "x", "bin", "half", "ghost"} {
		p := core.ParsePath(name)
		want := CheckName(w, resolve, acts, p)
		results := make([]core.Entity, len(acts))
		for i, a := range acts {
			results[i], _ = resolve(a, p)
		}
		if got := Classify(w, results); got != want {
			t.Fatalf("Classify(%q) = %v, CheckName = %v", name, got, want)
		}
	}
}

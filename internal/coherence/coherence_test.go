package coherence

import (
	"math"
	"testing"

	"namecoherence/internal/core"
)

// fixture builds a world with three activities whose contexts:
//   - agree on "g" (all → shared),
//   - disagree on "x" (each → its own object),
//   - bind "bin" to per-activity replicas of one replica group,
//   - bind "half" only for the first activity,
//   - bind nothing for "ghost".
func fixture(t *testing.T) (w *core.World, acts []core.Entity, resolve ResolveFunc) {
	t.Helper()
	w = core.NewWorld()
	shared := w.NewObject("shared")
	ctxs := make(map[core.EntityID]core.Context)

	var bins []core.Entity
	for i := 0; i < 3; i++ {
		a := w.NewActivity("a")
		c := core.NewContext()
		c.Bind("g", shared)
		c.Bind("x", w.NewObject("x-private"))
		bin := w.NewObject("bin-replica")
		bins = append(bins, bin)
		c.Bind("bin", bin)
		if i == 0 {
			c.Bind("half", w.NewObject("half"))
		}
		ctxs[a.ID] = c
		acts = append(acts, a)
	}
	if _, err := w.NewReplicaGroup(bins...); err != nil {
		t.Fatal(err)
	}
	resolve = func(a core.Entity, p core.Path) (core.Entity, error) {
		return w.Resolve(ctxs[a.ID], p)
	}
	return w, acts, resolve
}

func TestCheckName(t *testing.T) {
	w, acts, resolve := fixture(t)
	tests := []struct {
		give string
		want Outcome
	}{
		{give: "g", want: Coherent},
		{give: "x", want: Incoherent},
		{give: "bin", want: WeaklyCoherent},
		{give: "half", want: Incoherent},
		{give: "ghost", want: Vacuous},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got := CheckName(w, resolve, acts, core.ParsePath(tt.give))
			if got != tt.want {
				t.Fatalf("CheckName(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestCheckNameSingleActivity(t *testing.T) {
	w, acts, resolve := fixture(t)
	// A single activity is trivially coherent with itself for bound names.
	if got := CheckName(w, resolve, acts[:1], core.PathOf("x")); got != Coherent {
		t.Fatalf("single activity: %v, want coherent", got)
	}
	if got := CheckName(w, resolve, nil, core.PathOf("x")); got != Vacuous {
		t.Fatalf("no activities: %v, want vacuous", got)
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		give Outcome
		want string
	}{
		{Coherent, "coherent"},
		{WeaklyCoherent, "weak"},
		{Vacuous, "vacuous"},
		{Incoherent, "incoherent"},
		{Outcome(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestMeasure(t *testing.T) {
	w, acts, resolve := fixture(t)
	paths := []core.Path{
		core.PathOf("g"), core.PathOf("x"), core.PathOf("bin"),
		core.PathOf("half"), core.PathOf("ghost"),
	}
	r := Measure(w, resolve, acts, paths)
	if r.Total != 5 || r.Coherent != 1 || r.Weak != 1 || r.Incoherent != 2 || r.Vacuous != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.Meaningful() != 4 {
		t.Fatalf("Meaningful = %d, want 4", r.Meaningful())
	}
	if got, want := r.StrictDegree(), 0.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("StrictDegree = %v, want %v", got, want)
	}
	if got, want := r.WeakDegree(), 0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("WeakDegree = %v, want %v", got, want)
	}
}

func TestReportDegreesEmptyAndVacuous(t *testing.T) {
	var r Report
	if r.StrictDegree() != 1 || r.WeakDegree() != 1 {
		t.Fatal("empty report degrees should be 1")
	}
	r.Add(Vacuous)
	if r.StrictDegree() != 1 || r.WeakDegree() != 1 {
		t.Fatal("all-vacuous report degrees should be 1")
	}
}

// Property: coherence is monotone under restriction — if a name is coherent
// for a set of activities, it is coherent (or vacuous) for every subset.
func TestCoherenceMonotoneUnderSubset(t *testing.T) {
	w, acts, resolve := fixture(t)
	paths := []core.Path{core.PathOf("g"), core.PathOf("bin"), core.PathOf("x"), core.PathOf("ghost")}
	subsets := [][]core.Entity{
		acts, {acts[0], acts[1]}, {acts[1], acts[2]}, {acts[0], acts[2]},
	}
	for _, p := range paths {
		full := CheckName(w, resolve, acts, p)
		if full != Coherent && full != WeaklyCoherent {
			continue
		}
		for _, sub := range subsets {
			got := CheckName(w, resolve, sub, p)
			if got == Incoherent {
				t.Fatalf("name %q coherent for full set but incoherent for subset", p)
			}
		}
	}
}

package coherence

import (
	"strings"
	"testing"

	"namecoherence/internal/core"
)

func TestExplain(t *testing.T) {
	w, acts, resolve := fixture(t)
	ex := Explain(w, resolve, acts, core.PathOf("x"))
	if ex.Outcome != Incoherent {
		t.Fatalf("Outcome = %v", ex.Outcome)
	}
	if len(ex.PerActivity) != 3 {
		t.Fatalf("PerActivity = %d", len(ex.PerActivity))
	}
	for i, r := range ex.PerActivity {
		if r.Activity != acts[i] {
			t.Fatal("activity order not preserved")
		}
		if r.Entity.IsUndefined() {
			t.Fatal("x should resolve for every activity")
		}
	}
}

func TestExplainDisagreements(t *testing.T) {
	w, acts, resolve := fixture(t)
	// "x" differs for all three: 3 disagreeing pairs.
	ex := Explain(w, resolve, acts, core.PathOf("x"))
	if got := len(ex.Disagreements(w)); got != 3 {
		t.Fatalf("disagreements = %d, want 3", got)
	}
	// "g" agrees everywhere.
	ex = Explain(w, resolve, acts, core.PathOf("g"))
	if got := len(ex.Disagreements(w)); got != 0 {
		t.Fatalf("disagreements = %d, want 0", got)
	}
	// "bin" is same-replica everywhere: no disagreements.
	ex = Explain(w, resolve, acts, core.PathOf("bin"))
	if got := len(ex.Disagreements(w)); got != 0 {
		t.Fatalf("replica disagreements = %d, want 0", got)
	}
}

func TestExplainWriteTo(t *testing.T) {
	w, acts, resolve := fixture(t)
	ex := Explain(w, resolve, acts, core.PathOf("half"))
	var sb strings.Builder
	if err := ex.WriteTo(w, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "incoherent") {
		t.Fatalf("missing outcome:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 activities
		t.Fatalf("unexpected line count:\n%s", out)
	}
}

func TestReportString(t *testing.T) {
	w, acts, resolve := fixture(t)
	rep := Measure(w, resolve, acts, []core.Path{
		core.PathOf("g"), core.PathOf("x"), core.PathOf("bin"), core.PathOf("ghost"),
	})
	s := rep.String()
	for _, want := range []string{"probes=4", "coherent=1", "weak=1", "incoherent=1", "vacuous=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

package coherence

import (
	"fmt"
	"io"

	"namecoherence/internal/core"
)

// Explanation records, for one name, what each activity resolved it to —
// the evidence behind an Outcome.
type Explanation struct {
	// Path is the probed compound name.
	Path core.Path
	// Outcome is the classification.
	Outcome Outcome
	// PerActivity lists (activity, entity, error) in probe order.
	PerActivity []ActivityResult
}

// ActivityResult is one activity's resolution of the probed name.
type ActivityResult struct {
	// Activity performed the resolution.
	Activity core.Entity
	// Entity is what the name denoted (Undefined on failure).
	Entity core.Entity
	// Err is the resolution error, if any.
	Err error
}

// Explain probes one name like CheckName but keeps the per-activity
// evidence.
func Explain(w *core.World, resolve ResolveFunc, activities []core.Entity, p core.Path) *Explanation {
	ex := &Explanation{
		Path:        p.Clone(),
		PerActivity: make([]ActivityResult, 0, len(activities)),
	}
	for _, a := range activities {
		e, err := resolve(a, p)
		ex.PerActivity = append(ex.PerActivity, ActivityResult{Activity: a, Entity: e, Err: err})
	}
	ex.Outcome = CheckName(w, resolve, activities, p)
	return ex
}

// Disagreements returns the indices of activity pairs that resolve the
// name to non-agreeing entities (neither equal nor same-replica).
func (ex *Explanation) Disagreements(w *core.World) [][2]int {
	var out [][2]int
	for i := 0; i < len(ex.PerActivity); i++ {
		for j := i + 1; j < len(ex.PerActivity); j++ {
			ei, ej := ex.PerActivity[i].Entity, ex.PerActivity[j].Entity
			if ei != ej && !w.SameReplica(ei, ej) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// WriteTo renders the explanation, one activity per line.
func (ex *Explanation) WriteTo(w *core.World, out io.Writer) error {
	if _, err := fmt.Fprintf(out, "%q: %s\n", ex.Path, ex.Outcome); err != nil {
		return err
	}
	for _, r := range ex.PerActivity {
		line := fmt.Sprintf("  %v(%s) -> %v", r.Activity, w.Label(r.Activity), r.Entity)
		if !r.Entity.IsUndefined() {
			line += fmt.Sprintf(" (%s)", w.Label(r.Entity))
		}
		if r.Err != nil {
			line += " [" + r.Err.Error() + "]"
		}
		if _, err := fmt.Fprintln(out, line); err != nil {
			return err
		}
	}
	return nil
}

// String renders the report's aggregate counts and degrees.
func (r *Report) String() string {
	return fmt.Sprintf(
		"probes=%d coherent=%d weak=%d incoherent=%d vacuous=%d strict=%.2f weak-degree=%.2f",
		r.Total, r.Coherent, r.Weak, r.Incoherent, r.Vacuous,
		r.StrictDegree(), r.WeakDegree())
}

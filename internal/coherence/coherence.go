package coherence

import (
	"namecoherence/internal/core"
)

// Outcome classifies the meaning of one name across a set of activities.
type Outcome int

// Outcomes, from strongest to weakest.
const (
	// Coherent: every activity resolves the name to the same defined entity.
	Coherent Outcome = iota + 1
	// WeaklyCoherent: the resolved entities are replicas of the same
	// replicated object (and not all identical).
	WeaklyCoherent
	// Vacuous: the name resolves to ⊥E for every activity. Formally
	// coherent (all denote the undefined entity), reported separately.
	Vacuous
	// Incoherent: at least two activities resolve the name to entities
	// that are neither equal nor replicas of each other (resolving vs. not
	// resolving also counts as disagreement).
	Incoherent
)

// String returns the outcome tag.
func (o Outcome) String() string {
	switch o {
	case Coherent:
		return "coherent"
	case WeaklyCoherent:
		return "weak"
	case Vacuous:
		return "vacuous"
	case Incoherent:
		return "incoherent"
	default:
		return "unknown"
	}
}

// ResolveFunc resolves a compound name on behalf of an activity under some
// scheme. Implementations return core.Undefined (with or without an error)
// when the name does not resolve; errors are not themselves disagreement —
// only the resolved entity matters.
type ResolveFunc func(a core.Entity, p core.Path) (core.Entity, error)

// CheckName classifies the coherence of one compound name across the given
// activities under the scheme embodied by resolve.
func CheckName(w *core.World, resolve ResolveFunc, activities []core.Entity, p core.Path) Outcome {
	results := make([]core.Entity, len(activities))
	for i, a := range activities {
		e, _ := resolve(a, p)
		results[i] = e
	}
	return Classify(w, results)
}

// Classify reduces the entities one name resolved to — one per observer —
// to an outcome. It is the core of CheckName, exposed so that observers
// other than model activities (for example the clients of a sharded name
// service) can be probed with the same rules.
func Classify(w *core.World, results []core.Entity) Outcome {
	allUndefined := true
	for _, e := range results {
		if !e.IsUndefined() {
			allUndefined = false
			break
		}
	}
	if len(results) == 0 || allUndefined {
		return Vacuous
	}

	allEqual := true
	for _, e := range results[1:] {
		if e != results[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return Coherent
	}

	// Not all equal: weak coherence requires pairwise same-replica (which
	// also excludes any undefined result).
	for i := 1; i < len(results); i++ {
		if !w.SameReplica(results[0], results[i]) {
			return Incoherent
		}
	}
	return WeaklyCoherent
}

// Report aggregates outcomes over a set of probe names.
type Report struct {
	// Total is the number of names probed.
	Total int
	// Coherent, Weak, Vacuous and Incoherent count outcomes.
	Coherent, Weak, Vacuous, Incoherent int
}

// Add records one outcome.
func (r *Report) Add(o Outcome) {
	r.Total++
	switch o {
	case Coherent:
		r.Coherent++
	case WeaklyCoherent:
		r.Weak++
	case Vacuous:
		r.Vacuous++
	case Incoherent:
		r.Incoherent++
	}
}

// Meaningful returns the number of non-vacuous probes.
func (r *Report) Meaningful() int { return r.Total - r.Vacuous }

// StrictDegree is the fraction of meaningful probes that are strictly
// coherent; 1 if there are no meaningful probes.
func (r *Report) StrictDegree() float64 {
	m := r.Meaningful()
	if m == 0 {
		return 1
	}
	return float64(r.Coherent) / float64(m)
}

// WeakDegree is the fraction of meaningful probes that are at least weakly
// coherent; 1 if there are no meaningful probes.
func (r *Report) WeakDegree() float64 {
	m := r.Meaningful()
	if m == 0 {
		return 1
	}
	return float64(r.Coherent+r.Weak) / float64(m)
}

// Measure probes every path across the given activities and aggregates the
// outcomes.
func Measure(w *core.World, resolve ResolveFunc, activities []core.Entity, paths []core.Path) *Report {
	r := &Report{}
	for _, p := range paths {
		r.Add(CheckName(w, resolve, activities, p))
	}
	return r
}

// Resolver is a client-side view of a naming service: anything that can
// resolve a compound name to an entity. Cluster clients, name-server
// clients and replica pools all satisfy it.
type Resolver interface {
	Resolve(p core.Path) (core.Entity, error)
}

// MeasureResolvers probes every path across a set of resolvers — typically
// the concurrent clients of a distributed name service, each with its own
// cache state — and aggregates outcomes exactly like Measure. A resolution
// error counts as ⊥E for that resolver, so resolving vs. not resolving is
// disagreement, as in CheckName.
func MeasureResolvers(w *core.World, resolvers []Resolver, paths []core.Path) *Report {
	r := &Report{}
	results := make([]core.Entity, len(resolvers))
	for _, p := range paths {
		for i, res := range resolvers {
			e, err := res.Resolve(p)
			if err != nil {
				e = core.Undefined
			}
			results[i] = e
		}
		r.Add(Classify(w, results))
	}
	return r
}

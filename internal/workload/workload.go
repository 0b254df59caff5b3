package workload

import (
	"fmt"
	"math/rand"

	"namecoherence/internal/core"
	"namecoherence/internal/rules"
)

// Generator produces deterministic synthetic workloads.
type Generator struct {
	rng *rand.Rand
}

// New returns a generator with the given seed.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n).
func (g *Generator) Intn(n int) int { return g.rng.Intn(n) }

// Names generates n distinct simple names with the given prefix.
func (g *Generator) Names(n int, prefix string) []core.Name {
	out := make([]core.Name, n)
	for i := range out {
		out[i] = core.Name(fmt.Sprintf("%s%04d", prefix, i))
	}
	return out
}

// Zipf returns n sample indices in [0, k) with a Zipf(1.1) distribution —
// the classic skew of name-lookup traffic, used by the caching ablation.
func (g *Generator) Zipf(n, k int) []int {
	z := rand.NewZipf(g.rng, 1.1, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// Population is a set of activities with per-activity contexts over a
// common probe-name vocabulary. A fraction of the names are shared: bound
// to the same entity in every context ("global names"); the rest are bound
// to private per-activity entities.
type Population struct {
	// World holds the generated entities.
	World *core.World
	// Activities are the population's activities in creation order.
	Activities []core.Entity
	// Contexts associates each activity with its context (the table behind
	// R(activity) and R(sender)).
	Contexts *rules.Assoc
	// SharedNames and LocalNames partition the vocabulary.
	SharedNames, LocalNames []core.Name
}

// ProbePaths returns the whole vocabulary as length-1 compound names.
func (p *Population) ProbePaths() []core.Path {
	out := make([]core.Path, 0, len(p.SharedNames)+len(p.LocalNames))
	for _, n := range p.SharedNames {
		out = append(out, core.PathOf(n))
	}
	for _, n := range p.LocalNames {
		out = append(out, core.PathOf(n))
	}
	return out
}

// Population builds nActs activities over a vocabulary of nNames names, of
// which sharedFrac (0..1) are shared. Shared names denote one common object
// each; local names denote a distinct object per activity.
func (g *Generator) Population(w *core.World, nActs, nNames int, sharedFrac float64) *Population {
	if sharedFrac < 0 {
		sharedFrac = 0
	}
	if sharedFrac > 1 {
		sharedFrac = 1
	}
	names := g.Names(nNames, "n")
	nShared := int(sharedFrac*float64(nNames) + 0.5)

	pop := &Population{
		World:       w,
		Contexts:    rules.NewAssoc(),
		SharedNames: names[:nShared],
		LocalNames:  names[nShared:],
	}
	sharedEnts := make([]core.Entity, nShared)
	for i := range sharedEnts {
		sharedEnts[i] = w.NewObject("shared:" + string(names[i]))
	}
	for a := 0; a < nActs; a++ {
		act := w.NewActivity(fmt.Sprintf("act%d", a))
		ctx := core.NewContext()
		for i, n := range pop.SharedNames {
			ctx.Bind(n, sharedEnts[i])
		}
		for _, n := range pop.LocalNames {
			ctx.Bind(n, w.NewObject(fmt.Sprintf("local:%s@%d", n, a)))
		}
		pop.Contexts.Set(act, ctx)
		pop.Activities = append(pop.Activities, act)
	}
	return pop
}

// ObjectContext builds a context object association for an object carrying
// embedded names: every vocabulary name is bound to a fresh entity private
// to the object, so R(object) resolves embedded names identically for all
// activities.
func (g *Generator) ObjectContext(w *core.World, pop *Population, label string) (core.Entity, *rules.Assoc) {
	obj := w.NewObject(label)
	ctx := core.NewContext()
	for _, n := range append(append([]core.Name(nil), pop.SharedNames...), pop.LocalNames...) {
		ctx.Bind(n, w.NewObject("emb:"+string(n)+"@"+label))
	}
	assoc := rules.NewAssoc()
	assoc.Set(obj, ctx)
	return obj, assoc
}

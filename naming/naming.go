package naming

import (
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
)

// Core model types (paper §2).
type (
	// Name is a simple (atomic) name.
	Name = core.Name
	// Path is a compound name: a sequence of simple names.
	Path = core.Path
	// EntityID identifies an entity within a World.
	EntityID = core.EntityID
	// Kind classifies entities as activities or objects.
	Kind = core.Kind
	// Entity denotes an element of the entity set E = A ∪ O ∪ {⊥E}.
	Entity = core.Entity
	// Context is a function from names to entities (the set C).
	Context = core.Context
	// BasicContext is the standard mutable Context implementation.
	BasicContext = core.BasicContext
	// World holds the model's sets: entities, states, replica groups.
	World = core.World
	// State is an entity's state σ(e); Context states make directories.
	State = core.State
	// GroupID identifies a replica group.
	GroupID = core.GroupID
	// Edge is one labelled edge of the naming graph.
	Edge = core.Edge
	// NotFoundError reports an unbound component during resolution.
	NotFoundError = core.NotFoundError
	// NotContextError reports resolution through a non-context entity.
	NotContextError = core.NotContextError
	// UnionContext overlays contexts, Plan 9 union-directory style.
	UnionContext = core.UnionContext
)

// Context combinators.
var (
	// Union overlays contexts; earlier layers shadow later ones.
	Union = core.Union
)

// Entity kinds.
const (
	KindActivity = core.KindActivity
	KindObject   = core.KindObject
)

// Undefined is the undefined entity ⊥E.
var Undefined = core.Undefined

// Core constructors and helpers.
var (
	// NewWorld returns an empty World.
	NewWorld = core.NewWorld
	// NewContext returns an empty mutable context.
	NewContext = core.NewContext
	// ParsePath splits a textual compound name on "/".
	ParsePath = core.ParsePath
	// PathOf builds a Path from components.
	PathOf = core.PathOf
	// SplitPathString parses a textual name, preserving absoluteness.
	SplitPathString = core.SplitPathString
)

// Closure mechanisms (paper §3).
type (
	// Source identifies where a name came from (Figure 1).
	Source = rules.Source
	// Circumstance is an element of the meta context M.
	Circumstance = rules.Circumstance
	// Rule is a resolution rule R ∈ [M → C].
	Rule = rules.Rule
	// Assoc associates entities with contexts (the table behind R(x)).
	Assoc = rules.Assoc
	// ActivityRule is R(activity).
	ActivityRule = rules.ActivityRule
	// SenderRule is R(sender).
	SenderRule = rules.SenderRule
	// ObjectRule is R(object).
	ObjectRule = rules.ObjectRule
	// FixedRule is the single-global-context closure.
	FixedRule = rules.FixedRule
	// Resolver couples a World with a Rule.
	Resolver = rules.Resolver
	// NoContextError reports a rule with no context for its key entity.
	NoContextError = rules.NoContextError
)

// Name sources (Figure 1).
const (
	SourceInternal = rules.SourceInternal
	SourceMessage  = rules.SourceMessage
	SourceObject   = rules.SourceObject
)

// Closure-mechanism constructors.
var (
	// NewAssoc returns an empty association table.
	NewAssoc = rules.NewAssoc
	// NewResolver couples a world and a rule.
	NewResolver = rules.NewResolver
	// Internal builds the circumstance for an internally generated name.
	Internal = rules.Internal
	// Received builds the circumstance for a message-borne name.
	Received = rules.Received
	// FromObject builds the circumstance for an embedded name.
	FromObject = rules.FromObject
)

// Coherence measurement (paper §4).
type (
	// Outcome classifies one name's coherence across activities.
	Outcome = coherence.Outcome
	// ResolveFunc resolves a name on behalf of an activity.
	ResolveFunc = coherence.ResolveFunc
	// Report aggregates outcomes over a probe set.
	Report = coherence.Report
	// ServiceResolver is a client-side view of a naming service: anything
	// that resolves a compound name to an entity (sharded clients
	// included); MeasureResolvers probes coherence across a set of them.
	ServiceResolver = coherence.Resolver
)

// Coherence outcomes.
const (
	Coherent       = coherence.Coherent
	WeaklyCoherent = coherence.WeaklyCoherent
	Vacuous        = coherence.Vacuous
	Incoherent     = coherence.Incoherent
)

// Coherence measurement functions.
var (
	// CheckName classifies one name across a set of activities.
	CheckName = coherence.CheckName
	// Measure probes a set of names across activities.
	Measure = coherence.Measure
	// MeasureResolvers probes names across service clients (e.g. the
	// failover clients of a replicated sharded cluster).
	MeasureResolvers = coherence.MeasureResolvers
)

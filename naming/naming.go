package naming

import (
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/rules"
)

// Core model types (paper §2).
type (
	// Path is a compound name: a sequence of simple names.
	Path = core.Path
	// Entity denotes an element of the entity set E = A ∪ O ∪ {⊥E}.
	Entity = core.Entity
)

// Core constructors and helpers.
var (
	// NewWorld returns an empty World.
	NewWorld = core.NewWorld
	// NewContext returns an empty mutable context.
	NewContext = core.NewContext
	// ParsePath splits a textual compound name on "/".
	ParsePath = core.ParsePath
	// SplitPathString parses a textual name, preserving absoluteness.
	SplitPathString = core.SplitPathString
)

// Closure mechanisms (paper §3).
type (
	// ActivityRule is R(activity).
	ActivityRule = rules.ActivityRule
)

// Closure-mechanism constructors.
var (
	// NewAssoc returns an empty association table.
	NewAssoc = rules.NewAssoc
	// NewResolver couples a world and a rule.
	NewResolver = rules.NewResolver
	// Internal builds the circumstance for an internally generated name.
	Internal = rules.Internal
)

// Coherence measurement (paper §4).
type (
	// ServiceResolver is a client-side view of a naming service: anything
	// that resolves a compound name to an entity (sharded clients
	// included).
	ServiceResolver = coherence.Resolver
)

// Coherence measurement functions.
var (
	// CheckName classifies one name across a set of activities.
	CheckName = coherence.CheckName
	// Measure probes a set of names across activities.
	Measure = coherence.Measure
)

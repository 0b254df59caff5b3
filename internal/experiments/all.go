package experiments

import "fmt"

// Experiment is one entry of the index: what cmd/cohbench lists, runs by
// id and prints, and what TestAllGolden pins table by table.
type Experiment struct {
	// ID is the experiment id (E1..E17, A1..A5).
	ID string
	// Title describes the experiment; the only place it is stated.
	Title string
	// run builds the table's header, rows and notes at the experiment's
	// one configuration.
	run func() (*Table, error)
}

// Run builds the experiment's table and stamps the entry's ID and Title
// on it.
func (e Experiment) Run() (*Table, error) {
	t, err := e.run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	t.ID, t.Title = e.ID, e.Title
	return t, nil
}

// Index lists every experiment and ablation in print order. Listing it
// runs nothing.
func Index() []Experiment {
	return []Experiment{
		{"E1", "coherence degree by name source and resolution rule", e1},
		{"E2", "coherent fraction vs context overlap, by context selection", e2},
		{"E3", "Newcastle Connection (single naming tree from per-machine trees)", e3},
		{"E4", "shared naming graph (Andrew /vice, DCE cells)", e4},
		{"E5", "cross-linked autonomous systems (federation)", e5},
		{"E6", "embedded names: Algol scope rule vs accessor-root baseline", e6},
		{"E7", "pid validity under renumbering: partially vs fully qualified", e7},
		{"E8", "per-process namespaces: remote execution parameter coherence", e8},
		{"E9", "weak coherence for replicated commands vs system size", e9},
		{"E10", "coherence vs scope distance with group/org/federation spaces", e10},
		{"E11", "replicated name service: weak coherence and failover", e11},
		{"E12", "boundary translation for exchanged names (message substrate)", e12},
		{"E13", "parent/child coherence vs post-fork context mutations", e13},
		{"E14", "sharded naming cluster: coherence and wire traffic vs shards and batch size", e14},
		{"E15", "replicated cluster under fault injection: availability and coherence", e15},
		{"E16", "content-addressed snapshot store: dedup, crash recovery, catch-up", e16},
		{"E17", "write churn vs caching readers: poll validation vs push invalidation", e17},
		{"A1", "name-server requests vs client cache size (Zipf lookups)", a1},
		{"A3", "forced pid qualification level: expressibility and survival", a3},
		{"A4", "stale reads under binding churn, by cache discipline", a4},
		{"A5", "lookup-load concentration along the naming tree", a5},
	}
}

package experiments

// Experiment is one entry of the index: what cmd/cohbench lists, runs by
// id and prints, and what TestAllGolden pins table by table.
type Experiment struct {
	// ID is the experiment id (E1..E17, A1..A5).
	ID string
	// Title describes the experiment; the only place it is stated.
	Title string
	// Run builds the table at the experiment's default configuration.
	Run func() (*Table, error)
}

// Index lists every experiment and ablation in print order. Listing it
// runs nothing.
func Index() []Experiment {
	return []Experiment{
		{"E1", "coherence degree by name source and resolution rule",
			func() (*Table, error) { return E1(DefaultE1()), nil }},
		{"E2", "coherent fraction vs context overlap, by context selection",
			func() (*Table, error) { return E2(DefaultE2()), nil }},
		{"E3", "Newcastle Connection (single naming tree from per-machine trees)",
			func() (*Table, error) { return E3(DefaultE3()) }},
		{"E4", "shared naming graph (Andrew /vice, DCE cells)",
			func() (*Table, error) { return E4(DefaultE4()) }},
		{"E5", "cross-linked autonomous systems (federation)",
			func() (*Table, error) { return E5(DefaultE5()) }},
		{"E6", "embedded names: Algol scope rule vs accessor-root baseline",
			func() (*Table, error) { return E6(DefaultE6()) }},
		{"E7", "pid validity under renumbering: partially vs fully qualified",
			func() (*Table, error) { return E7(DefaultE7()) }},
		{"E8", "per-process namespaces: remote execution parameter coherence",
			func() (*Table, error) { return E8(DefaultE8()) }},
		{"E9", "weak coherence for replicated commands vs system size",
			func() (*Table, error) { return E9(DefaultE9()) }},
		{"E10", "coherence vs scope distance with group/org/federation spaces",
			func() (*Table, error) { return E10(DefaultE10()) }},
		{"E11", "replicated name service: weak coherence and failover",
			func() (*Table, error) { return E11(DefaultE11()) }},
		{"E12", "boundary translation for exchanged names (message substrate)",
			func() (*Table, error) { return E12(DefaultE12()) }},
		{"E13", "parent/child coherence vs post-fork context mutations",
			func() (*Table, error) { return E13(DefaultE13()) }},
		{"E14", "sharded naming cluster: coherence and wire traffic vs shards and batch size",
			func() (*Table, error) { return E14(DefaultE14()) }},
		{"E15", "replicated cluster under fault injection: availability and coherence",
			func() (*Table, error) { return E15(DefaultE15()) }},
		{"E16", "content-addressed snapshot store: dedup, crash recovery, catch-up",
			func() (*Table, error) { return E16(DefaultE16()) }},
		{"E17", "write churn vs caching readers: poll validation vs push invalidation",
			func() (*Table, error) { return E17(DefaultE17()) }},
		{"A1", "name-server requests vs client cache size (Zipf lookups)",
			func() (*Table, error) { return A1(DefaultA1()) }},
		{"A3", "forced pid qualification level: expressibility and survival",
			func() (*Table, error) { return A3(DefaultA3()) }},
		{"A4", "stale reads under binding churn, by cache discipline",
			func() (*Table, error) { return A4(DefaultA4()) }},
		{"A5", "lookup-load concentration along the naming tree",
			func() (*Table, error) { return A5(DefaultA5()) }},
	}
}

// title returns the indexed title of experiment id.
func title(id string) string {
	for _, e := range Index() {
		if e.ID == id {
			return e.Title
		}
	}
	panic("experiments: no index entry for " + id)
}

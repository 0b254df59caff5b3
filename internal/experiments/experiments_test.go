package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// runTable runs the index entry id, as cmd/cohbench does, and fails the
// test if it returns an error.
func runTable(t *testing.T, id string) *Table {
	t.Helper()
	for _, e := range Index() {
		if e.ID == id {
			tb, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
	}
	t.Fatalf("no index entry %s", id)
	return nil
}

// cell returns Rows[r][c] with bounds checking.
func cell(t *testing.T, tb *Table, r, c int) string {
	t.Helper()
	if r >= len(tb.Rows) || c >= len(tb.Rows[r]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%v", tb.ID, r, c, tb.Rows)
	}
	return tb.Rows[r][c]
}

// rowByLabel returns the first row whose first cell equals label.
func rowByLabel(t *testing.T, tb *Table, label string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == label {
			return row
		}
	}
	t.Fatalf("%s: no row %q; rows=%v", tb.ID, label, tb.Rows)
	return nil
}

func TestE1Matrix(t *testing.T) {
	tb := runTable(t, "E1")
	// Rows: R(activity), R(sender), R(object), R(global).
	// Columns: rule, internal, message, object.
	want := [][]string{
		{"R(activity)", "0.25", "0.25", "0.25"},
		{"R(sender)", "0.25", "1.00", "0.25"},
		{"R(object)", "0.25", "0.25", "1.00"},
		{"R(global)", "1.00", "1.00", "1.00"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := range want {
		for c := range want[r] {
			if got := cell(t, tb, r, c); got != want[r][c] {
				t.Errorf("E1[%d][%d] = %q, want %q", r, c, got, want[r][c])
			}
		}
	}
}

func TestE2Sweep(t *testing.T) {
	tb := runTable(t, "E2")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		overlap := row[0]
		// Receiver-side selections track the overlap; sender/object-side
		// selections are always fully coherent.
		if row[1] != overlap {
			t.Errorf("msg/R(receiver) at overlap %s = %s", overlap, row[1])
		}
		if row[3] != overlap {
			t.Errorf("obj/R(activity) at overlap %s = %s", overlap, row[3])
		}
		if row[2] != "1.00" || row[4] != "1.00" {
			t.Errorf("sender/object rules not fully coherent at %s: %v", overlap, row)
		}
	}
}

func TestE3Newcastle(t *testing.T) {
	tb := runTable(t, "E3")
	expect := map[string]string{
		"/ names, same machine":                               "1.00",
		"/ names, across machines":                            "0.00",
		"../machine/... names, across machines":               "1.00",
		"remote exec params, root-of-invoker":                 "1.00",
		"remote exec executor-local access, root-of-invoker":  "0.00",
		"remote exec params, root-of-executor":                "0.00",
		"remote exec executor-local access, root-of-executor": "1.00",
	}
	for label, want := range expect {
		row := rowByLabel(t, tb, label)
		if row[1] != want {
			t.Errorf("%q = %s, want %s", label, row[1], want)
		}
	}
}

func TestE4SharedGraph(t *testing.T) {
	tb := runTable(t, "E4")
	// label → [strict, weak]
	expect := map[string][2]string{
		"/vice (shared graph), all clients": {"1.00", "1.00"},
		"local names, all clients":          {"0.00", "0.00"},
		"replicated /bin, all clients":      {"0.00", "1.00"},
		"/.: cell names, within cell":       {"1.00", "1.00"},
		"/.: cell names, across cells":      {"0.00", "0.00"},
	}
	for label, want := range expect {
		row := rowByLabel(t, tb, label)
		if row[1] != want[0] || row[2] != want[1] {
			t.Errorf("%q = (%s,%s), want %v", label, row[1], row[2], want)
		}
	}
}

func TestE5Federation(t *testing.T) {
	tb := runTable(t, "E5")
	verbatim := rowByLabel(t, tb, "verbatim across boundary")
	if verbatim[1] != "0" {
		t.Errorf("verbatim coherent = %s, want 0", verbatim[1])
	}
	if verbatim[2] != "5" {
		t.Errorf("verbatim wrong-entity = %s, want 5 (the colliding users)", verbatim[2])
	}
	mapped := rowByLabel(t, tb, "with prefix mapping")
	if mapped[1] != "20" || mapped[2] != "0" {
		t.Errorf("mapped = %v", mapped)
	}
	if row := rowByLabel(t, tb, "embedded name, receiver-root rule"); row[1] != "0" {
		t.Errorf("embedded baseline = %s, want 0", row[1])
	}
	if row := rowByLabel(t, tb, "embedded name, Algol-scope rule"); row[1] != "1" {
		t.Errorf("embedded scoped = %s, want 1", row[1])
	}
}

func TestE6Embedded(t *testing.T) {
	tb := runTable(t, "E6")
	n := itoa(e6EmbeddedNames)
	// The scope rule preserves all meanings under every operation; the
	// baseline works only in the purpose-built friendly layout.
	for _, row := range tb.Rows {
		if row[1] != n {
			t.Errorf("scoped %q = %s, want %s", row[0], row[1], n)
		}
		wantBaseline := "0"
		if row[0] == "baseline-friendly layout" {
			wantBaseline = n
		}
		if row[2] != wantBaseline {
			t.Errorf("baseline %q = %s, want %s", row[0], row[2], wantBaseline)
		}
	}
}

func TestE7Renumbering(t *testing.T) {
	tb := runTable(t, "E7")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		scheme, intra, inward, untouched := row[1], row[2], row[4], row[5]
		if intra == "n/a" {
			t.Fatalf("no intra refs sampled: %v", row)
		}
		// The paper's claim: intra refs survive iff partially qualified.
		wantIntra := "0.00"
		if scheme == "partially qualified" {
			wantIntra = "1.00"
		}
		if !strings.HasPrefix(intra, wantIntra) {
			t.Errorf("%v: intra = %s, want prefix %s", row[:2], intra, wantIntra)
		}
		// Inward refs break under both schemes; untouched survive both.
		if !strings.HasPrefix(inward, "0.00") {
			t.Errorf("%v: inward = %s", row[:2], inward)
		}
		if !strings.HasPrefix(untouched, "1.00") {
			t.Errorf("%v: untouched = %s", row[:2], untouched)
		}
	}
}

func TestE8PerProcess(t *testing.T) {
	tb := runTable(t, "E8")
	pp := rowByLabel(t, tb, "per-process remote exec")
	if pp[1] != "1.00" || pp[2] != "1.00" {
		t.Errorf("per-process row = %v", pp)
	}
	base := rowByLabel(t, tb, "per-machine baseline")
	if base[1] != "0.00" {
		t.Errorf("baseline param coherence = %s, want 0.00", base[1])
	}
}

func TestE9WeakCoherence(t *testing.T) {
	tb := runTable(t, "E9")
	if len(tb.Rows) != len(e9ClientCounts) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "0.00" || row[2] != "1.00" {
			t.Errorf("clients=%s: strict=%s weak=%s, want 0.00/1.00", row[0], row[1], row[2])
		}
	}
}

func TestE10ScopeDistance(t *testing.T) {
	tb := runTable(t, "E10")
	expect := map[string]string{
		"same group":                "1.00",
		"same org, different group": "0.67",
		"different org":             "0.33",
	}
	for label, want := range expect {
		row := rowByLabel(t, tb, label)
		if row[len(row)-1] != want {
			t.Errorf("%q degree = %s, want %s", label, row[len(row)-1], want)
		}
	}
	// The services (federation-scoped) column stays coherent everywhere.
	for _, row := range tb.Rows {
		if row[3] != "coherent" {
			t.Errorf("services at %q = %s", row[0], row[3])
		}
	}
}

func TestA1Caching(t *testing.T) {
	tb := runTable(t, "A1")
	if len(tb.Rows) != len(a1CacheSizes) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Server requests must be monotonically non-increasing with cache size.
	prev := -1
	for i, row := range tb.Rows {
		reqs := row[2]
		var v int
		if _, err := fmtSscan(reqs, &v); err != nil {
			t.Fatalf("bad cell %q", reqs)
		}
		if prev >= 0 && v > prev {
			t.Errorf("row %d: requests %d > previous %d", i, v, prev)
		}
		prev = v
	}
	// Without a cache, every lookup hits the server.
	if tb.Rows[0][2] != tb.Rows[0][1] {
		t.Errorf("no-cache row: served %s != lookups %s", tb.Rows[0][2], tb.Rows[0][1])
	}
}

func TestA3QualificationLevels(t *testing.T) {
	tb := runTable(t, "A3")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var expr [3]int
	for i, row := range tb.Rows {
		if _, err := fmtSscan(row[1], &expr[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Higher levels express strictly more references; level 3 expresses all.
	if !(expr[0] <= expr[1] && expr[1] <= expr[2]) {
		t.Errorf("expressibility not monotone: %v", expr)
	}
	var total int
	if _, err := fmtSscan(tb.Rows[2][3], &total); err != nil {
		t.Fatal(err)
	}
	if expr[2] != total {
		t.Errorf("level 3 expresses %d of %d", expr[2], total)
	}
}

// E16's headline claims: replicated subtrees dedup into one blob set
// (ratio above the replica count would be even better, above 1 is the
// contract), every life after the first recovers all shards, replicas
// come up by catch-up, and store-restored replicas stay weakly coherent.
func TestE16(t *testing.T) {
	tb := runTable(t, "E16")
	if len(tb.Rows) != e16Lives {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), e16Lives)
	}
	for i, row := range tb.Rows {
		life := i + 1
		var recovered, caughtUp, copied int
		var dedup, weak float64
		if _, err := fmtSscan(row[1], &recovered); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &caughtUp); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &copied); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(row[6], &dedup); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(row[7], &weak); err != nil {
			t.Fatal(err)
		}
		if dedup <= 1 {
			t.Errorf("life %d: dedup ratio %v, want > 1 (replicated subtrees must share blobs)", life, dedup)
		}
		if weak != 1 {
			t.Errorf("life %d: weak coherence %v, want 1.0", life, weak)
		}
		if row[8] != "yes" {
			t.Errorf("life %d: replica roots disagree", life)
		}
		if life == 1 && recovered != 0 {
			t.Errorf("life 1 recovered %d shards from an empty store", recovered)
		}
		if life > 1 {
			if recovered != e16Shards {
				t.Errorf("life %d recovered %d shards, want %d", life, recovered, e16Shards)
			}
			if caughtUp != e16Shards*(e16Replicas-1) {
				t.Errorf("life %d caught up %d replicas, want %d",
					life, caughtUp, e16Shards*(e16Replicas-1))
			}
			if copied == 0 {
				t.Errorf("life %d catch-up copied no blobs", life)
			}
		}
	}
}

// The index is what cohbench lists and TestAllGolden runs: every entry
// complete, no id twice.
func TestAllRuns(t *testing.T) {
	index := Index()
	if len(index) != 21 {
		t.Fatalf("index = %d entries, want 21", len(index))
	}
	seen := make(map[string]bool)
	for _, e := range index {
		if e.ID == "" || e.Title == "" || e.run == nil {
			t.Errorf("index entry %q malformed", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"n1"},
	}
	tb.AddRow("x", "y")
	s := tb.String()
	for _, want := range []string{"== T: demo ==", "a", "x", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

// fmtSscan adapts fmt.Sscan for terse use in assertions.
func fmtSscan(s string, v *int) (int, error) {
	return fmt.Sscan(s, v)
}

func TestA4CacheChurn(t *testing.T) {
	tb := runTable(t, "A4")
	var staleByScheme = map[string]int{}
	var servedByScheme = map[string]int{}
	for _, row := range tb.Rows {
		var stale, served int
		if _, err := fmtSscan(row[2], &stale); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &served); err != nil {
			t.Fatal(err)
		}
		staleByScheme[row[0]] = stale
		servedByScheme[row[0]] = served
	}
	// No cache: never stale, every lookup served remotely.
	if staleByScheme["none"] != 0 || servedByScheme["none"] != a4Lookups {
		t.Errorf("none: %d stale, %d served", staleByScheme["none"], servedByScheme["none"])
	}
	// Plain cache: substantially stale under churn.
	if staleByScheme["plain"] == 0 {
		t.Error("plain cache shows no staleness under churn")
	}
	// Coherent cache: strictly less stale than plain, at higher traffic.
	if staleByScheme["coherent"] >= staleByScheme["plain"] {
		t.Errorf("coherent (%d) not better than plain (%d)",
			staleByScheme["coherent"], staleByScheme["plain"])
	}
	if servedByScheme["coherent"] <= servedByScheme["plain"] {
		t.Errorf("coherent traffic (%d) not higher than plain (%d) — suspicious",
			servedByScheme["coherent"], servedByScheme["plain"])
	}
}

func TestA5RootBottleneck(t *testing.T) {
	tb := runTable(t, "A5")
	if len(tb.Rows) != len(a5Fanouts) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var lookups, rootLoad, maxL1, maxDeeper int
		for i, dst := range []*int{&lookups, &rootLoad, &maxL1, &maxDeeper} {
			if _, err := fmtSscan(row[i+1], dst); err != nil {
				t.Fatal(err)
			}
		}
		// The root serves every resolution.
		if rootLoad != lookups {
			t.Errorf("fanout %s: root load %d != lookups %d", row[0], rootLoad, lookups)
		}
		// Load strictly decreases down the tree.
		if !(rootLoad > maxL1 && maxL1 > maxDeeper) {
			t.Errorf("fanout %s: load not decreasing: %d, %d, %d",
				row[0], rootLoad, maxL1, maxDeeper)
		}
	}
}

func TestE11ReplicatedService(t *testing.T) {
	tb := runTable(t, "E11")
	for _, row := range tb.Rows {
		var replicas, distinct int
		if _, err := fmtSscan(row[0], &replicas); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &distinct); err != nil {
			t.Fatal(err)
		}
		// Rotation visits every replica: strict coherence impossible.
		if distinct != replicas {
			t.Errorf("replicas=%d: distinct = %d", replicas, distinct)
		}
		// Weak coherence and post-failure availability are total.
		if row[3] != "1.00" {
			t.Errorf("replicas=%d: weak-coherent = %s", replicas, row[3])
		}
		if row[4] != "1.00" {
			t.Errorf("replicas=%d: post-failure success = %s", replicas, row[4])
		}
	}
}

func TestE12BoundaryTranslation(t *testing.T) {
	tb := runTable(t, "E12")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var crossOK, crossTotal, sameOK, sameTotal int
		for i, dst := range []*int{&crossOK, &crossTotal, &sameOK, &sameTotal} {
			if _, err := fmtSscan(row[i+1], dst); err != nil {
				t.Fatal(err)
			}
		}
		// Same-machine exchange is always coherent.
		if sameOK != sameTotal {
			t.Errorf("%s: same-machine %d/%d", row[0], sameOK, sameTotal)
		}
		// Cross-machine: 0 for identity, all for the mapping translator.
		if strings.HasPrefix(row[0], "identity") && crossOK != 0 {
			t.Errorf("identity cross-machine coherent = %d", crossOK)
		}
		if strings.HasPrefix(row[0], "newcastle") && crossOK != crossTotal {
			t.Errorf("mapped cross-machine %d/%d", crossOK, crossTotal)
		}
	}
}

func TestE13ForkDivergence(t *testing.T) {
	tb := runTable(t, "E13")
	init := e13InitialAttaches
	for _, row := range tb.Rows {
		var mutations int
		if _, err := fmtSscan(row[0], &mutations); err != nil {
			t.Fatal(err)
		}
		wantCopy := fmt.Sprintf("%.2f", float64(init)/float64(init+mutations))
		if row[1] != wantCopy {
			t.Errorf("mutations=%d: copy coherence = %s, want %s", mutations, row[1], wantCopy)
		}
		if row[2] != "1.00" {
			t.Errorf("mutations=%d: shared coherence = %s, want 1.00", mutations, row[2])
		}
	}
}

func TestE14ShardedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("full shard x batch sweep over TCP")
	}
	tb := runTable(t, "E14")
	if want := len(e14ShardCounts) * len(e14BatchSizes); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	// Strict coherence must hold for every client of every shard at every
	// shard count and batch size: the shards are one shared graph.
	wire := map[[2]int]int{} // (shards, batch) -> wire requests
	for _, row := range tb.Rows {
		var shards, batch, lookups, reqs int
		for i, dst := range []*int{&shards, &batch, &lookups, &reqs} {
			if _, err := fmtSscan(row[i], dst); err != nil {
				t.Fatal(err)
			}
		}
		if lookups != e14Clients*e14Lookups {
			t.Errorf("shards=%d batch=%d: lookups = %d, want %d",
				shards, batch, lookups, e14Clients*e14Lookups)
		}
		if got := row[len(row)-1]; got != "1.00" {
			t.Errorf("shards=%d batch=%d: strict coherence = %s, want 1.00",
				shards, batch, got)
		}
		wire[[2]int{shards, batch}] = reqs
	}
	// Batching amortizes the wire: at every shard count, batch 64 must
	// need at most half the wire requests of unbatched resolution.
	for _, shards := range e14ShardCounts {
		one, big := wire[[2]int{shards, 1}], wire[[2]int{shards, 64}]
		if big*2 > one {
			t.Errorf("shards=%d: batch-64 wire requests %d not < half of unbatched %d",
				shards, big, one)
		}
	}
}

func TestE15FailoverAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected TCP cluster sweep")
	}
	tb := runTable(t, "E15")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (healthy, one-down)", len(tb.Rows))
	}
	budget := e15Budget.Milliseconds()
	for _, label := range []string{"healthy", "one-down"} {
		row := rowByLabel(t, tb, label)
		// Every name must resolve — with one replica per shard down,
		// failover across the surviving replicas keeps availability 1.0.
		if row[3] != "1.00" {
			t.Errorf("%s: availability = %s, want 1.00 (row %v)", label, row[3], row)
		}
		// Weak coherence must hold across every client: replicas of one
		// shard subtree are one replica group.
		if row[7] != "1.00" {
			t.Errorf("%s: weak coherence = %s, want 1.00 (row %v)", label, row[7], row)
		}
		var maxMs int
		if _, err := fmtSscan(row[5], &maxMs); err != nil {
			t.Fatal(err)
		}
		// No request may block past its deadline budget.
		if int64(maxMs) > budget {
			t.Errorf("%s: max lookup %dms exceeds budget %dms", label, maxMs, budget)
		}
	}
	// The one-down phase must actually have exercised failover.
	var failovers int
	if _, err := fmtSscan(rowByLabel(t, tb, "one-down")[4], &failovers); err != nil {
		t.Fatal(err)
	}
	if failovers == 0 {
		t.Error("one-down phase recorded no failovers — fault injection is vacuous")
	}
}

// E17's headline claim: under live write churn, push invalidation keeps
// caching readers coherent (degree >= 0.99 is the acceptance bar; the
// mechanism actually delivers 1.0) while poll validation leaves caches
// full of hits that never revalidate — visibly stale against the
// authoritative graph.
func TestE17(t *testing.T) {
	tb := runTable(t, "E17")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (poll, push)", len(tb.Rows))
	}
	degrees := map[string]float64{}
	for _, row := range tb.Rows {
		var weak float64
		if _, err := fmt.Sscan(row[6], &weak); err != nil {
			t.Fatal(err)
		}
		degrees[row[0]] = weak
		var writes int
		if _, err := fmtSscan(row[1], &writes); err != nil {
			t.Fatal(err)
		}
		if writes == 0 {
			t.Errorf("%s: no writes applied — the churn is vacuous", row[0])
		}
	}
	if degrees["push"] < 0.99 {
		t.Errorf("push-invalidated coherence = %v, want >= 0.99", degrees["push"])
	}
	if degrees["poll"] >= degrees["push"] {
		t.Errorf("poll degree %v >= push degree %v — push invalidation bought nothing",
			degrees["poll"], degrees["push"])
	}
	var invals int
	if _, err := fmtSscan(rowByLabel(t, tb, "push")[4], &invals); err != nil {
		t.Fatal(err)
	}
	if invals == 0 {
		t.Error("push phase recorded no invalidation frames")
	}
}

package treespec

import (
	"strings"
	"testing"

	"namecoherence/internal/core"
)

const shardedSpec = `
# demo cluster spec
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/passwd "root:0:staff"
file /etc/motd "welcome"
dir /home/alice
file /home/alice/notes "todo"
file /srv/data "payload"
link /mnt /usr
`

func TestSplitCoversEveryLine(t *testing.T) {
	plan, err := Split(shardedSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 3 {
		t.Fatalf("Specs = %d, want 3", len(plan.Specs))
	}
	total := 0
	for _, s := range plan.Specs {
		for _, line := range strings.Split(s, "\n") {
			if strings.TrimSpace(line) != "" {
				total++
			}
		}
	}
	if total != 8 {
		t.Fatalf("lines across shards = %d, want 8", total)
	}
	// Every prefix is routed, and the routes point inside range.
	for _, p := range []string{"usr", "etc", "home", "srv", "mnt"} {
		shard, ok := plan.Prefixes[p]
		if !ok {
			t.Fatalf("prefix %q unrouted", p)
		}
		if shard < 0 || shard >= 3 {
			t.Fatalf("prefix %q -> shard %d out of range", p, shard)
		}
	}
}

func TestSplitColocatesLinkedPrefixes(t *testing.T) {
	plan, err := Split(shardedSpec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Prefixes["mnt"] != plan.Prefixes["usr"] {
		t.Fatalf("link prefixes split apart: mnt -> %d, usr -> %d",
			plan.Prefixes["mnt"], plan.Prefixes["usr"])
	}
	// The shard holding usr must be able to build its spec (the link's
	// target lives there).
	w := core.NewWorld()
	tr, err := Build(plan.Specs[plan.Prefixes["usr"]], w, "shard-usr")
	if err != nil {
		t.Fatalf("linked shard spec does not build: %v", err)
	}
	if _, err := tr.Lookup(core.ParsePath("mnt/bin/ls")); err != nil {
		t.Fatalf("link broken after split: %v", err)
	}
}

func TestSplitShardsBuildAndPartition(t *testing.T) {
	plan, err := Split(shardedSpec, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, spec := range plan.Specs {
		w := core.NewWorld()
		tr, err := Build(spec, w, "shard")
		if err != nil {
			t.Fatalf("shard %d spec does not build: %v", i, err)
		}
		for _, n := range tr.RootContext().Names() {
			seen[string(n)]++
			if want := plan.Prefixes[string(n)]; want != i {
				t.Fatalf("prefix %q built on shard %d but routed to %d", n, i, want)
			}
		}
	}
	for _, p := range []string{"usr", "etc", "home", "srv", "mnt"} {
		if seen[p] != 1 {
			t.Fatalf("prefix %q served by %d shards, want exactly 1", p, seen[p])
		}
	}
}

func TestSplitSingleShardIsWhole(t *testing.T) {
	plan, err := Split(shardedSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld()
	tr, err := Build(plan.Specs[0], w, "whole")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"usr/bin/ls", "etc/passwd", "home/alice/notes", "srv/data", "mnt/bin/ls"} {
		if _, err := tr.Lookup(core.ParsePath(path)); err != nil {
			t.Fatalf("lookup %q: %v", path, err)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, err := Split(shardedSpec, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(shardedSpec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range a.Prefixes {
		if b.Prefixes[p] != s {
			t.Fatalf("nondeterministic routing for %q: %d vs %d", p, s, b.Prefixes[p])
		}
	}
	for i := range a.Specs {
		if a.Specs[i] != b.Specs[i] {
			t.Fatalf("nondeterministic spec for shard %d", i)
		}
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	if _, err := Split(shardedSpec, 0); err == nil {
		t.Fatal("Split with 0 shards should fail")
	}
	if _, err := Split("frobnicate /x\n", 2); err == nil {
		t.Fatal("Split of a bad directive should fail")
	}
	if _, err := Split("link /only-one\n", 2); err == nil {
		t.Fatal("Split of a malformed link should fail")
	}
}

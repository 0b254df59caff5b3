package treespec

import (
	"errors"
	"fmt"
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

// Split and Build read one grammar: a line one refuses as malformed, the
// other refuses too.
func TestSplitAndBuildRefuseTheSameLines(t *testing.T) {
	for _, give := range []string{
		"frob /x",
		"dir ",
		"dir /",
		"file /x",
		`file /x unquoted`,
		`file / "c"`,
		`embed /x`,
		`embed / "a"`,
		"file /x \"c\"\nembed /x \"\"",
		"file /x \"c\"\nembed /x \"/\"",
		"link /a",
		"link /a /b /c",
		"link / /x",
		"dir /x\nlink /y /",
	} {
		_, splitErr := Split(give, 2)
		_, buildErr := Build(give, core.NewWorld(), "t")
		if !errors.Is(splitErr, ErrSyntax) || !errors.Is(buildErr, ErrSyntax) {
			t.Errorf("spec %q: Split err = %v, Build err = %v; want ErrSyntax from both", give, splitErr, buildErr)
		}
	}
}

// benchSpec is a spec of nsload's shape: 16×16×16 directories of eight
// files each, then 64 links into one of them.
func benchSpec() string {
	var sb strings.Builder
	for d := 0; d < 16*16*16; d++ {
		dir := fmt.Sprintf("/t%02d/d%02d/s%02d", d/256, d/16%16, d%16)
		fmt.Fprintf(&sb, "dir %s\n", dir)
		for f := 0; f < 8; f++ {
			fmt.Fprintf(&sb, "file %s/f%d \"%08x\"\n", dir, f, f)
		}
	}
	for v := 0; v < 64; v++ {
		fmt.Fprintf(&sb, "link /t00/d00/s00/v%02d /t00/d00/s01/f0\n", v)
	}
	return sb.String()
}

func BenchmarkSplit(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(spec, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec, core.NewWorld(), "b"); err != nil {
			b.Fatal(err)
		}
	}
}

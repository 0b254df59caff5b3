package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from this build")

// TestMetricNamesGolden pins the name of every counter the four Metrics
// types publish, one package.Type.Field line each, to testdata/metrics.golden:
// a renamed or added counter shows up as a diff. `go test ./internal/cluster
// -run TestMetricNamesGolden -update` rewrites the file after a deliberate
// change.
func TestMetricNamesGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range []any{nameserver.ServerMetrics{}, nameserver.ClientMetrics{}, Metrics{}, ClientMetrics{}} {
		typ := reflect.TypeOf(m)
		for i := 0; i < typ.NumField(); i++ {
			b.WriteString(typ.String() + "." + typ.Field(i).Name + "\n")
		}
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("metric names moved (rerun with -update if deliberate):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBenchViewsReadMetrics gives one client a hit, a miss, a coalesced
// lookup, a whole-shard purge, a failover and a pushed frame, and checks
// that each of the five views bench/nsload reads equals its Metrics field.
func TestBenchViewsReadMetrics(t *testing.T) {
	cl := startReplicated(t, 1, 2)
	c := pushClient(t, cl)
	prime(t, c, "usr/bin/ls")

	// A mkcontext commit announces "everything": the cached shard goes.
	if _, err := c.Mkcontext(core.ParsePath("usr"), "local"); err != nil {
		t.Fatal(err)
	}
	waitInvalidations(t, c, 1)

	// A lookup that finds its name already in flight shares that answer.
	f := &flight{done: make(chan struct{})}
	close(f.done)
	c.mu.Lock()
	c.flights["etc/motd"] = f
	c.mu.Unlock()
	if _, err := c.Resolve(core.ParsePath("etc/motd")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	delete(c.flights, "etc/motd")
	c.mu.Unlock()

	// The primary dies under the pooled connection: the next miss fails over.
	cl.Fault(0, 0).SetMode(faultnet.Reset)
	if _, err := c.Resolve(core.ParsePath("etc/passwd")); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	hits, misses := c.Stats()
	for _, v := range []struct {
		name       string
		view, want int
	}{
		{"Stats hits", hits, m.Hits},
		{"Stats misses", misses, m.Misses},
		{"Coalesced", c.Coalesced(), m.Coalesced},
		{"Purges", c.Purges(), m.Purges},
		{"Failovers", c.Failovers(), m.Failovers},
		{"Invalidations", c.Invalidations(), m.Invalidations},
	} {
		if v.want == 0 || v.view != v.want {
			t.Errorf("%s = %d, Metrics says %d (want it non-zero)", v.name, v.view, v.want)
		}
	}
}

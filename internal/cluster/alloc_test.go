//go:build !race

// Allocation floors for the cluster client's cache hit, the path the
// cluster-zipf workload's median lookup takes. Excluded under -race: the
// race runtime adds its own allocations and would skew every floor.
package cluster

import (
	"fmt"
	"strings"
	"testing"

	"namecoherence/internal/core"
)

// allocFloor asserts that f averages at most want allocations per run.
// Floors are ceilings, not equalities: a future change that shaves another
// allocation should not fail the suite.
func allocFloor(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > want {
		t.Errorf("%s: %.1f allocs/op, want ≤ %.0f — an allocation crept onto the cache-hit path", name, got, want)
	}
}

// hitClient returns a caching client over a two-shard cluster on which
// every name in raws resolves (each one other than usr/bin/ls is bound
// under usr/bin first) and is cached, so each is a hit from now on.
func hitClient(t testing.TB, raws ...string) *Client {
	t.Helper()
	cl := startCluster(t, 2)
	c, err := Dial("tcp", cl.Addrs()[0], fastOpts(WithLRU(64))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ls, err := c.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	// Bind everything before resolving anything: a polling client purges
	// the shard at each write's revision.
	usrBin := core.ParsePath("usr/bin")
	for _, raw := range raws {
		if p := core.ParsePath(raw); raw != "usr/bin/ls" {
			if err := c.Bind(usrBin, p[len(p)-1], ls); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, raw := range raws {
		if _, err := c.Resolve(core.ParsePath(raw)); err != nil {
			t.Fatal(err)
		}
	}
	hits := c.Metrics().Hits
	for _, raw := range raws {
		if _, err := c.Resolve(core.ParsePath(raw)); err != nil {
			t.Fatal(err)
		}
	}
	if after := c.Metrics().Hits; after-hits != len(raws) {
		t.Fatalf("%d of %d primed names hit: the cache did not keep them", after-hits, len(raws))
	}
	return c
}

// keyOfLen returns usr/bin/ followed by enough x's for a key of n bytes.
func keyOfLen(n int) string {
	return "usr/bin/" + strings.Repeat("x", n-len("usr/bin/"))
}

// TestClusterHitAllocFloor: the key is rendered into the client's buffer
// and the probe converts it on the stack, so a hit allocates nothing — up to
// the compiler's 32-byte stack buffer for string(b). A longer key costs the
// conversion, and only that. An all-hit batch costs its result slice.
func TestClusterHitAllocFloor(t *testing.T) {
	short, edge, long := "usr/bin/ls", keyOfLen(32), keyOfLen(65)
	c := hitClient(t, short, edge, long)
	for _, tc := range []struct {
		raw  string
		want float64
	}{{short, 0}, {edge, 0}, {long, 1}} {
		p := core.ParsePath(tc.raw)
		allocFloor(t, fmt.Sprintf("Resolve hit, %d-byte key", len(tc.raw)), tc.want, func() {
			if _, err := c.Resolve(p); err != nil {
				t.Fatal(err)
			}
		})
	}

	before := c.Metrics()
	batch := []core.Path{core.ParsePath(short), core.ParsePath(edge), core.ParsePath(short)}
	allocFloor(t, "ResolveBatch, every slot a hit", 1, func() {
		if _, err := c.ResolveBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if after := c.Metrics(); after.Hits == before.Hits || after.Misses != before.Misses {
		t.Fatalf("the batches moved hits %d → %d and misses %d → %d; want only hits", before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// BenchmarkClusterResolveHit times one cache hit on a cluster client: the
// key render, the §6 check and the SIEVE probe under the client's mutex.
func BenchmarkClusterResolveHit(b *testing.B) {
	c := hitClient(b, "usr/bin/ls")
	p := core.ParsePath("usr/bin/ls")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(p); err != nil {
			b.Fatal(err)
		}
	}
}

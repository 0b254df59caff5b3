// Package namecoherence holds the top-level benchmark harness: one
// benchmark per experiment table (E1..E17, A1..A5 — see DESIGN.md and
// EXPERIMENTS.md) plus the microbenchmark ablations (A2: resolution cost
// vs. path depth; name-server round-trips with and without caching;
// sharded-cluster throughput vs. batch size).
package namecoherence

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/experiments"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/netsim"
	"namecoherence/internal/pqi"
)

// benchTable runs a table-producing experiment once per iteration.
func benchTable(b *testing.B, build func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := build()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1SourcesByRules(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E1(experiments.DefaultE1()), nil
	})
}

func BenchmarkE2ContextSelection(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E2(experiments.DefaultE2()), nil
	})
}

func BenchmarkE3Newcastle(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E3(experiments.DefaultE3())
	})
}

func BenchmarkE4SharedGraph(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E4(experiments.DefaultE4())
	})
}

func BenchmarkE5Federation(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E5(experiments.DefaultE5())
	})
}

func BenchmarkE6EmbeddedNames(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E6(experiments.DefaultE6())
	})
}

func BenchmarkE7PQIRenumber(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E7(experiments.DefaultE7())
	})
}

func BenchmarkE8PerProcess(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E8(experiments.DefaultE8())
	})
}

func BenchmarkE9WeakCoherence(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E9(experiments.DefaultE9())
	})
}

func BenchmarkE10ScopedSpaces(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E10(experiments.DefaultE10())
	})
}

func BenchmarkE12BoundaryTranslation(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E12(experiments.DefaultE12())
	})
}

func BenchmarkE11ReplicatedService(b *testing.B) {
	cfg := experiments.DefaultE11()
	cfg.ReplicaCounts = []int{2}
	cfg.Resolutions = 8
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E11(cfg)
	})
}

func BenchmarkE13ForkDivergence(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E13(experiments.DefaultE13())
	})
}

func BenchmarkA1NameServerCaching(b *testing.B) {
	cfg := experiments.DefaultA1()
	cfg.Lookups = 500 // keep individual iterations short
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.A1(cfg)
	})
}

func BenchmarkA3QualificationLevels(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.A3(experiments.DefaultA3())
	})
}

func BenchmarkA5RootBottleneck(b *testing.B) {
	cfg := experiments.DefaultA5()
	cfg.Lookups = 1000 // keep individual iterations short
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.A5(cfg)
	})
}

func BenchmarkA4CacheChurn(b *testing.B) {
	cfg := experiments.DefaultA4()
	cfg.Lookups = 300 // keep individual iterations short
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.A4(cfg)
	})
}

// BenchmarkA2ResolveDepth measures compound-name resolution cost as a
// function of path depth (ablation A2).
func BenchmarkA2ResolveDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			w := core.NewWorld()
			tr := dirtree.New(w, "root")
			p := make(core.Path, depth)
			for i := 0; i < depth; i++ {
				p[i] = core.Name(fmt.Sprintf("d%02d", i))
			}
			if _, err := tr.MkdirAll(p); err != nil {
				b.Fatal(err)
			}
			rootCtx := tr.RootContext()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Resolve(rootCtx, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2ResolveFanout measures resolution cost against directory
// fan-out (the map-lookup regime of wide directories).
func BenchmarkA2ResolveFanout(b *testing.B) {
	for _, fanout := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			w := core.NewWorld()
			tr := dirtree.New(w, "root")
			for i := 0; i < fanout; i++ {
				if _, err := tr.Create(core.ParsePath(fmt.Sprintf("dir/f%05d", i)), "x"); err != nil {
					b.Fatal(err)
				}
			}
			p := core.ParsePath(fmt.Sprintf("dir/f%05d", fanout/2))
			rootCtx := tr.RootContext()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Resolve(rootCtx, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNameServerRoundTrip measures one remote resolution over a
// net.Pipe, with and without the client cache (the raw cost A1 aggregates).
func BenchmarkNameServerRoundTrip(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			w := core.NewWorld()
			tr := dirtree.New(w, "export")
			if _, err := tr.Create(core.ParsePath("usr/bin/ls"), "x"); err != nil {
				b.Fatal(err)
			}
			server := nameserver.NewServer(w, tr.RootContext())
			serverEnd, clientEnd := net.Pipe()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				server.ServeConn(serverEnd)
			}()
			var opts []nameserver.ClientOption
			if cached {
				opts = append(opts, nameserver.WithCache(16))
			}
			client := nameserver.NewClient(clientEnd, opts...)
			p := core.ParsePath("usr/bin/ls")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Resolve(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = client.Close()
			wg.Wait()
		})
	}
}

// delayedChunk is a chunk of proxied bytes due for delivery at a fixed
// time after it was read.
type delayedChunk struct {
	buf []byte
	due time.Time
}

// delayCopy forwards src to dst, delivering each chunk delay after it was
// read. Chunks in flight overlap — the delay models link latency, not
// bandwidth, which is exactly the distinction pipelining exploits.
func delayCopy(dst io.WriteCloser, src io.ReadCloser, delay time.Duration) {
	ch := make(chan delayedChunk, 1024)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32*1024)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- delayedChunk{buf: buf[:n], due: time.Now().Add(delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.buf); err != nil {
			break
		}
	}
	_ = dst.Close()
	_ = src.Close()
}

// delayProxy listens on loopback TCP and forwards every connection to
// backend, adding delay in each direction.
func delayProxy(b *testing.B, backend string, delay time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				_ = conn.Close()
				continue
			}
			go delayCopy(up, conn, delay)
			go delayCopy(conn, up, delay)
		}
	}()
	b.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

// BenchmarkNameServerPipelined measures multiplexed wire throughput at
// bounded in-flight depth over one shared connection: a semaphore caps
// how many requests are on the wire at a time, so inflight=1 is the old
// lock-step protocol's regime and inflight=64 a full pipeline, with
// RunParallel supplying enough goroutines to keep the pipeline at depth.
// A name server is remote by definition, so the headline sub-benchmarks
// run over loopback TCP through a delay proxy adding 1ms each way (a
// LAN-scale round-trip): that is the latency pipelining exists to hide.
// The raw/ variants skip the proxy and so measure pure codec + scheduling
// cost per message — on a single-CPU host both depths converge there,
// because zero-latency loopback leaves nothing to overlap. names/s is the
// figure of merit; the inflight=64 / inflight=1 ratio is the pipelining
// win.
func BenchmarkNameServerPipelined(b *testing.B) {
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	paths := make([]core.Path, 16)
	for i := range paths {
		p := fmt.Sprintf("srv/obj%02d", i)
		if _, err := tr.Create(core.ParsePath(p), "x"); err != nil {
			b.Fatal(err)
		}
		paths[i] = core.ParsePath(p)
	}
	// Reads and writes that reach the connection are counted on both ends.
	// Timings on a shared host drift; these do not, so they are what a
	// -benchtime=1x smoke run can still be compared on.
	var clientIO, serverIO faultnet.Counts
	run := func(b *testing.B, addr string, depth int) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		client := nameserver.NewClient(faultnet.CountConn(conn, &clientIO))
		defer client.Close()
		if err := client.Err(); err != nil {
			b.Fatal(err)
		}
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((depth+procs-1)/procs + 1)
		sem := make(chan struct{}, depth)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sem <- struct{}{}
				_, err := client.Resolve(paths[i%len(paths)])
				<-sem
				if err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "names/s")

		// The counted rows come from a pass of fixed size, off the clock
		// and on one P: depth callers, countedRounds calls each, whatever
		// b.N and -cpu were. On one P the schedule repeats, and the counts
		// with it (to the third digit); on several they wander twofold,
		// which no regression gate could use.
		const countedRounds = 32
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cw, sw := clientIO.Writes.Load(), serverIO.Writes.Load()
		var wg sync.WaitGroup
		for g := 0; g < depth; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < countedRounds; i++ {
					if _, err := client.Resolve(paths[(g+i)%len(paths)]); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		ops := float64(depth * countedRounds)
		b.ReportMetric(float64(clientIO.Writes.Load()-cw)/ops, "client-writes/op")
		b.ReportMetric(float64(serverIO.Writes.Load()-sw)/ops, "server-writes/op")
	}
	server := nameserver.NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go server.Serve(faultnet.CountListener(ln, &serverIO))
	defer server.Close()
	proxied := delayProxy(b, ln.Addr().String(), time.Millisecond)
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("inflight=%d", depth), func(b *testing.B) {
			run(b, proxied, depth)
		})
	}
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("raw/inflight=%d", depth), func(b *testing.B) {
			run(b, ln.Addr().String(), depth)
		})
	}
}

// BenchmarkE14ShardedCluster measures sharded-cluster resolution
// throughput versus shard count, batch size, and client concurrency (the
// raw wire cost E14's table aggregates). Each iteration resolves the
// 64-name slate conc times through one uncached client — batch=1 issues
// 64 round-trips per worker, batch=64 one per shard, and conc>1 workers
// multiplex over the same shared per-replica connections — so ns/op
// compares directly and names/s shows batching and pipelining amortize.
func BenchmarkE14ShardedCluster(b *testing.B) {
	const slate = 64
	var spec strings.Builder
	paths := make([]core.Path, 0, 128)
	for d := 0; d < 16; d++ {
		for f := 0; f < 8; f++ {
			p := fmt.Sprintf("sub%02d/f%02d", d, f)
			fmt.Fprintf(&spec, "file /%s %q\n", p, "x")
			paths = append(paths, core.ParsePath(p))
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		w := core.NewWorld()
		cl, err := cluster.New(w, spec.String(), shards)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 8, 64} {
			for _, conc := range []int{1, 8} {
				b.Run(fmt.Sprintf("shards=%d/batch=%d/conc=%d", shards, batch, conc), func(b *testing.B) {
					client, err := cluster.Dial("tcp", cl.Addrs()[0])
					if err != nil {
						b.Fatal(err)
					}
					defer client.Close()
					slate64 := func() error {
						for at := 0; at < slate; at += batch {
							results, err := client.ResolveBatch(paths[at : at+batch])
							if err != nil {
								return err
							}
							for _, res := range results {
								if res.Err != nil {
									return res.Err
								}
							}
						}
						return nil
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if conc == 1 {
							// Inline: per-iteration goroutine spawns would
							// charge stack growth to the serial baseline.
							if err := slate64(); err != nil {
								b.Fatal(err)
							}
							continue
						}
						var wg sync.WaitGroup
						errCh := make(chan error, conc)
						for g := 0; g < conc; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								if err := slate64(); err != nil {
									errCh <- err
								}
							}()
						}
						wg.Wait()
						select {
						case err := <-errCh:
							b.Fatal(err)
						default:
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(slate*conc*b.N)/b.Elapsed().Seconds(), "names/s")
				})
			}
		}
		cl.Close()
	}
}

// BenchmarkWriteChurn measures wire mutation throughput through the
// cluster write path: each iteration is one bind/unbind cycle against the
// owning shard's primary, with asynchronous replication to the backup and
// — in the readers>0 variants — subscribed push-invalidated readers that
// keep resolving their 32 cached names while the churn goes on beside
// them. writes/s is the figure of merit; the rest says what the push cost
// and what the readers kept, and is exact: invals/op is 2 × readers (one
// frame per commit per subscriber — frames no longer coalesce below the
// server's pending bound), and since no churned name is one a reader
// holds, entries-purged/op and whole-purges/op are 0 and reader-hit-ratio
// is 1. Under the whole-shard rule every commit emptied half of each
// reader's cache.
func BenchmarkWriteChurn(b *testing.B) {
	var spec strings.Builder
	paths := make([]core.Path, 0, 32)
	for d := 0; d < 4; d++ {
		for f := 0; f < 8; f++ {
			p := fmt.Sprintf("sub%02d/f%02d", d, f)
			fmt.Fprintf(&spec, "file /%s %q\n", p, "x")
			paths = append(paths, core.ParsePath(p))
		}
	}
	for _, readers := range []int{0, 4} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			w := core.NewWorld()
			cl, err := cluster.NewReplicated(w, spec.String(), 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			writer, err := cluster.Dial("tcp", cl.Addrs()[0])
			if err != nil {
				b.Fatal(err)
			}
			defer writer.Close()
			subs := make([]*cluster.Client, readers)
			for i := range subs {
				subs[i], err = cluster.Dial("tcp", cl.Addrs()[0],
					cluster.WithLRU(64), cluster.WithPushInvalidation())
				if err != nil {
					b.Fatal(err)
				}
				defer subs[i].Close()
				for _, p := range paths {
					if _, err := subs[i].Resolve(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			target, err := writer.Resolve(paths[0])
			if err != nil {
				b.Fatal(err)
			}
			// counters sums the readers' {hits, misses, frames consumed,
			// entries purged, whole-shard purges}.
			counters := func() (c [5]int) {
				for _, r := range subs {
					hits, misses := r.Stats()
					for i, v := range []int{hits, misses, r.Invalidations(), r.EntriesPurged(), r.Purges()} {
						c[i] += v
					}
				}
				return c
			}
			before := counters()
			// One goroutine reads for all the readers: a pass over every
			// cached name of each, then a pause, so it samples the caches
			// a few thousand times a second without taking a CPU from the
			// writer it runs beside.
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					for _, r := range subs {
						for _, p := range paths {
							if _, err := r.Resolve(p); err != nil {
								b.Error(err)
								return
							}
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()
			dir := core.ParsePath("sub00")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := core.Name(fmt.Sprintf("churn%03d", i%512))
				if err := writer.Bind(dir, name, target); err != nil {
					b.Fatal(err)
				}
				if err := writer.Unbind(dir, name); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			<-stopped
			cl.DrainReplication()
			b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "writes/s")
			if readers > 0 {
				// Every frame is owed; give the last few their flight time.
				after := counters()
				for deadline := time.Now().Add(5 * time.Second); after[2]-before[2] < 2*b.N*readers && time.Now().Before(deadline); after = counters() {
					time.Sleep(time.Millisecond)
				}
				perOp := func(i int) float64 { return float64(after[i]-before[i]) / float64(b.N) }
				b.ReportMetric(perOp(2), "invals/op")
				b.ReportMetric(perOp(3), "entries-purged/op")
				b.ReportMetric(perOp(4), "whole-purges/op")
				hits, misses := after[0]-before[0], after[1]-before[1]
				b.ReportMetric(float64(hits)/float64(max(1, hits+misses)), "reader-hit-ratio")
			}
		})
	}
}

// BenchmarkRemoteResolve compares in-process resolution of a name against
// resolution through its shard's name server over TCP loopback, with and
// without the cluster client's cache.
func BenchmarkRemoteResolve(b *testing.B) {
	w := core.NewWorld()
	cl, err := cluster.New(w, `file /etc/passwd "x"`, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	p := core.ParsePath("etc/passwd")

	b.Run("in-process", func(b *testing.B) {
		ctx := cl.Trees[0].RootContext()
		for i := 0; i < b.N; i++ {
			if _, err := w.Resolve(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	overWire := func(opts ...cluster.ClientOption) func(b *testing.B) {
		return func(b *testing.B) {
			client, err := cluster.Dial("tcp", cl.Addrs()[0], opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Resolve(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("wire-uncached", overWire())
	b.Run("wire-cached", overWire(cluster.WithLRU(16)))
}

// BenchmarkPIDMap measures the R(sender) boundary mapping of one pid.
func BenchmarkPIDMap(b *testing.B) {
	sender := netsim.Addr{Net: 1, Mach: 2, Local: 3}
	receiver := netsim.Addr{Net: 2, Mach: 7, Local: 1}
	p := pqi.PID{Local: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pqi.Map(p, sender, receiver); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextLookup measures one simple-name resolution (the model's
// innermost operation).
func BenchmarkContextLookup(b *testing.B) {
	w := core.NewWorld()
	c := core.NewContext()
	e := w.NewObject("o")
	c.Bind("name", e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.Lookup("name"); got != e {
			b.Fatal("wrong entity")
		}
	}
}

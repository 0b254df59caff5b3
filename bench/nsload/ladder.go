package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/lru"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

// perLayer is what the traced run reports: one rung per module, each
// measured from outside by timing calls into its public functions. The
// README says which end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "treespec.build_ms", unit: "ms", better: "lower"},
	{name: "core.resolve_ns", unit: "ns", better: "lower"},
	{name: "core.resolve_allocs", unit: "count", better: "lower"},
	{name: "nameserver.pipe_rtt_ns", unit: "ns", better: "lower"},
	{name: "nameserver.pipe_allocs_per_op", unit: "count", better: "lower"},
	{name: "nameserver.codec_mux_ns", unit: "ns", better: "lower"},
	{name: "nameserver.tcp_rtt_ns", unit: "ns", better: "lower"},
	{name: "nameserver.kernel_ns", unit: "ns", better: "lower"},
	{name: "nameserver.tcp_d64_names_per_s", unit: "1/s", better: "higher"},
	{name: "nameserver.batch16_rtt_ns", unit: "ns", better: "lower"},
	{name: "nameserver.p99_us", unit: "us", better: "lower"},
	{name: "nameserver.client_writes_per_op.d1", unit: "count", better: "lower"},
	{name: "nameserver.client_writes_per_op.d64", unit: "count", better: "lower"},
	{name: "nameserver.client_reads_per_op.d1", unit: "count", better: "lower"},
	{name: "nameserver.client_reads_per_op.d64", unit: "count", better: "lower"},
	{name: "nameserver.server_reads_per_op.d1", unit: "count", better: "lower"},
	{name: "nameserver.server_reads_per_op.d64", unit: "count", better: "lower"},
	{name: "nameserver.server_writes_per_op.d1", unit: "count", better: "lower"},
	{name: "nameserver.server_writes_per_op.d64", unit: "count", better: "lower"},
	{name: "nameserver.req_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "nameserver.resp_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "nameserver.cache_hit_ns", unit: "ns", better: "lower"},
	{name: "nameserver.apply_ns", unit: "ns", better: "lower"},
	{name: "nameserver.write_rtt_ns", unit: "ns", better: "lower"},
	{name: "nameserver.push_lag_ns", unit: "ns", better: "lower"},
	{name: "lru.get_ns", unit: "ns", better: "lower"},
	{name: "lru.put_evict_ns", unit: "ns", better: "lower"},
	{name: "cluster.hit_ns", unit: "ns", better: "lower"},
	{name: "cluster.miss_ns", unit: "ns", better: "lower"},
	{name: "cluster.route_cache_ns", unit: "ns", better: "lower"},
	{name: "cluster.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.coalesced", unit: "count", better: "higher"},
	{name: "cluster.purges", unit: "count", better: "lower"},
	{name: "cluster.invalidations", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.write_rtt_ns", unit: "ns", better: "lower"},
	{name: "cluster.write_p99_us", unit: "us", better: "lower"},
	{name: "cluster.replicate_lag_us", unit: "us", better: "lower"},
	{name: "snapstore.snapshot_full_ms", unit: "ms", better: "lower"},
	{name: "snapstore.snapshot_incr_ms", unit: "ms", better: "lower"},
	{name: "snapstore.restore_ms", unit: "ms", better: "lower"},
	{name: "cas.puts_per_incr_snapshot", unit: "count", better: "lower"},
	{name: "cas.bytes_per_incr_snapshot", unit: "bytes", better: "lower"},
	{name: "cas.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "nsd.build_ms", unit: "ms", better: "lower"},
	{name: "nsd.start_ms", unit: "ms", better: "lower"},
	{name: "nsd.user_cpu_s", unit: "s", better: "lower"},
	{name: "nsd.sys_cpu_s", unit: "s", better: "lower"},
	{name: "nsd.process_rtt_ns", unit: "ns", better: "lower"},
	{name: "nsd.process_ns", unit: "ns", better: "lower"},
	{name: "nsd.resolve_p99_us", unit: "us", better: "lower"},
	{name: "nsd.write_p50_us", unit: "us", better: "lower"},
	{name: "nsd.visible_lag_p50_us", unit: "us", better: "lower"},
	{name: "nsd.recover_s", unit: "s", better: "lower"},
	{name: "nsq.oneshot_ms", unit: "ms", better: "lower"},
	{name: "nsload.late_max_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

const (
	// ladderOps is how many names of the workload's stream each rung
	// replays; rungs with costlier ops replay a stated share of them.
	ladderOps = 50000
	// chunk is how many sub-microsecond calls share one span and one pair
	// of clock readings: timing each alone would measure the clock.
	chunk = 1024
)

// connCounts counts the syscall-shaped events on one side of a connection.
type connCounts struct{ reads, writes, readBytes, writeBytes atomic.Int64 }

func (c *connCounts) snapshot() [4]int64 {
	return [4]int64{c.reads.Load(), c.writes.Load(), c.readBytes.Load(), c.writeBytes.Load()}
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.readBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.writeBytes.Add(int64(n))
	return n, err
}

type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

// rungs replays one workload's ops up the ladder.
type rungs struct {
	tr   *tracer
	root uint32
	rep  *report
	in   *inputs
	ref  *reference
	seq  []uint32 // the first ops of the workload's name stream
}

// slowdown measures the host's speed now (a 75ms probe). Every timing on
// the ladder is taken right after one and divided by it, so rungs measured
// a second apart — on a host whose speed flips that fast — are comparable
// and their differences mean something.
func (l *rungs) slowdown() float64 {
	sp, err := l.ref.probe(5)
	if err != nil {
		l.fail("%v", err)
		return 1
	}
	return sp.slowdown()
}

// timed runs fn once under its own span and returns how long it took, in
// ms at the reference speed.
func (l *rungs) timed(name string, fn func() error) (float64, error) {
	slow := l.slowdown()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.tr.add(l.root, name, t0, t1)
	return float64(t1.Sub(t0).Microseconds()) / 1e3 / slow, err
}

// fail counts one wrong or failed answer on a rung.
func (l *rungs) fail(format string, a ...any) {
	l.rep.failed++
	complain(format, a...)
}

// each calls fn n times under a rung span, one span per call, and returns
// the durations in ns at the reference speed, sorted.
func (l *rungs) each(name string, n int, fn func(k int)) []int64 {
	slow := l.slowdown()
	rung := l.tr.open(l.root, name)
	defer l.tr.close(rung)
	d := make([]int64, n)
	t0 := time.Now()
	for k := 0; k < n; k++ {
		fn(k)
		t1 := time.Now()
		l.tr.add(rung, name+".call", t0, t1)
		d[k] = int64(float64(t1.Sub(t0)) / slow)
		t0 = t1
	}
	l.rep.attempted += int64(n)
	slices.Sort(d)
	return d
}

// chunked is each for calls too short to time alone: one span per chunk,
// and the result is the median over chunks of the mean ns per call.
func (l *rungs) chunked(name string, n int, fn func(k int)) float64 {
	slow := l.slowdown()
	rung := l.tr.open(l.root, name)
	defer l.tr.close(rung)
	var means []float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t0 := time.Now()
		for k := lo; k < hi; k++ {
			fn(k)
		}
		t1 := time.Now()
		l.tr.add(rung, name+".x"+strconv.Itoa(hi-lo), t0, t1)
		means = append(means, float64(t1.Sub(t0))/float64(hi-lo)/slow)
	}
	l.rep.attempted += int64(n)
	return median(means)
}

// allocsPer reports heap allocations per call of fn, process-wide: on the
// wire rungs that is client and server together.
func allocsPer(n int, fn func(k int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		fn(k)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func p50(sorted []int64) float64 { return float64(percentile(sorted, 0.5)) }

// ladder is the traced run. The process rung runs first (untraced, then
// traced) against the nsd that set-up started; the in-process rungs follow,
// each on objects built here from the same spec.
func (e *env) ladder(wl workload, in *inputs, it *instance, ref *reference, seconds int, rep *report) error {
	tr := newTracer()
	l := &rungs{tr: tr, rep: rep, in: in, ref: ref, seq: in.stream(wl)[:e.ladderOps]}
	l.root = tr.open(0, "trace "+wl.name)

	ms, err := l.timed("nsd.build", func() error { _, err := goBuild(e.root, e.out, "./cmd/nsd"); return err })
	if err != nil {
		return err
	}
	rep.set("nsd.build_ms", "ms", ms)
	rep.set("nsd.start_ms", "ms", float64(it.proc.startup.Microseconds())/1e3/it.slow)

	if err := e.processRung(wl, it, ref, l, max(4, seconds/3)); err != nil {
		return err
	}
	spec, err := os.ReadFile(it.dir + "/tree.spec")
	if err != nil {
		return err
	}
	w := core.NewWorld()
	var tree *dirtree.Tree
	ms, err = l.timed("treespec.build", func() (err error) {
		tree, err = treespec.Build(string(spec), w, "ladder")
		return err
	})
	if err != nil {
		return err
	}
	rep.set("treespec.build_ms", "ms", ms)

	if err := l.wireRungs(w, tree); err != nil {
		return err
	}
	l.lruRung()
	if err := l.clusterRung(string(spec)); err != nil {
		return err
	}
	if err := l.snapRung(e.out, w, tree); err != nil {
		return err
	}

	// The rungs telescope: each self time is its rung minus the one below.
	m := rep.Metrics
	rep.set("nameserver.codec_mux_ns", "ns", m["nameserver.pipe_rtt_ns"]-m["core.resolve_ns"])
	rep.set("nameserver.kernel_ns", "ns", m["nameserver.tcp_rtt_ns"]-m["nameserver.pipe_rtt_ns"])
	rep.set("nsd.process_ns", "ns", m["nsd.process_rtt_ns"]-m["nameserver.tcp_rtt_ns"])
	rep.set("cluster.route_cache_ns", "ns", m["cluster.miss_ns"]-m["nameserver.tcp_rtt_ns"])

	tr.close(l.root)
	rep.Counts["spans"] = len(tr.spans)
	return tr.write(fmt.Sprintf("%s/trace-%s.json", e.out, wl.name), wl.name)
}

// processRung measures the real nsd process: one-shot nsq, a serial plain
// client for the rung's round trip, then the workload itself, untraced and
// traced, for the tracing overhead and the client's own counters.
func (e *env) processRung(wl workload, it *instance, ref *reference, l *rungs, seconds int) error {
	rep, in := l.rep, l.in
	nsq, err := goBuild(e.root, e.out, "./cmd/nsq")
	if err != nil {
		return err
	}
	args := []string{"-addr", it.proc.addr}
	if wl.sharded {
		args = append(args, "-cluster")
	}
	args = append(args, "/"+in.leaves[0].String())
	var shots []float64
	for i := 0; i < 5; i++ {
		ms, err := l.timed("nsq.oneshot", func() error {
			out, err := exec.Command(nsq, args...).CombinedOutput()
			if err != nil {
				return fmt.Errorf("nsq %v: %v\n%s", args, err, out)
			}
			return nil
		})
		if err != nil {
			return err
		}
		shots = append(shots, ms)
	}
	rep.set("nsq.oneshot_ms", "ms", median(shots))

	// The round trip a plain client sees against the separate process,
	// comparable op for op with the in-process TCP rung. A sharded nsd
	// answers at each member only for that member's prefixes.
	plain, err := nameserver.Dial("tcp", it.proc.addr)
	if err != nil {
		return err
	}
	mine := l.seq
	if c := it.reader.cluster; c != nil {
		routes := c.Routes()
		mine = nil
		for _, i := range l.seq {
			if routes.ShardFor(in.leaves[i]) == 0 {
				mine = append(mine, i)
			}
		}
	}
	n := len(mine) / 5
	d := l.each("nsd.process_rtt", n, func(k int) {
		if got, err := plain.Resolve(in.leaves[mine[k]]); err != nil || got != it.want[mine[k]] {
			l.fail("process rung: %v = %v, %v", in.leaves[mine[k]], got, err)
		}
	})
	_ = plain.Close()
	rep.set("nsd.process_rtt_ns", "ns", p50(d))

	plainRun, err := drive(wl, in, it, ref, seconds, nil, 0)
	if err != nil {
		return err
	}
	// The reader's own counters, over the traced run only (all zero when
	// the workload's reader is not a cluster.Client).
	counters := func() (c [6]int) {
		if cl := it.reader.cluster; cl != nil {
			c[0], c[1] = cl.Stats()
			c[2], c[3], c[4], c[5] = cl.Coalesced(), cl.Purges(), cl.Invalidations(), cl.Failovers()
		}
		return c
	}
	before := counters()
	rung := l.tr.open(l.root, "process "+wl.name)
	traced, err := drive(wl, in, it, ref, seconds, l.tr, rung)
	l.tr.close(rung)
	if err != nil {
		return err
	}
	after := counters()
	rep.add(plainRun.counts)
	rep.add(traced.counts)
	// What the workload's own callers, writer and prober saw, untraced: the
	// figures too unsteady from run to run on this host to carry a bound.
	sr := plainRun.series()
	if len(sr["write_p50_us"]) == 0 {
		return errors.New("the writer completed too few cycles to report")
	}
	rep.set("nsd.resolve_p99_us", "us", median(sr["resolve_p99_us"]))
	rep.set("nsd.write_p50_us", "us", median(sr["write_p50_us"]))
	rep.set("nsd.visible_lag_p50_us", "us", median(sr["visible_lag_p50_us"]))
	rep.set("trace.overhead_frac", "ratio", 1-median(traced.series()["names_per_s"])/median(sr["names_per_s"]))
	rep.set("nsload.late_max_ms", "ms", float64(traced.writes.lateMax.Microseconds())/1e3)
	hits, misses := after[0]-before[0], after[1]-before[1]
	rep.set("cluster.cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	for i, name := range []string{"coalesced", "purges", "invalidations", "failovers"} {
		rep.set("cluster."+name, "count", float64(after[2+i]-before[2+i]))
	}

	rc, err := e.restart(wl, in, it, ref, e.restarts)
	if err != nil {
		return err
	}
	rep.add(rc.counts)
	rep.set("nsd.recover_s", "s", median(rc.seconds))
	user, sys := rc.first.cpuUsed()
	rep.set("nsd.user_cpu_s", "s", user.Seconds())
	rep.set("nsd.sys_cpu_s", "s", sys.Seconds())
	return nil
}

// wireRungs climbs core → net.Pipe → in-process TCP on one tree and one
// server, then measures that server's cache, write and push paths.
func (l *rungs) wireRungs(w *core.World, tree *dirtree.Tree) error {
	rep, in, seq := l.rep, l.in, l.seq
	ctx := tree.RootContext()
	want := make([]core.Entity, len(in.leaves))
	for i, p := range in.leaves {
		want[i] = w.MustResolve(ctx, p)
	}
	check := func(rung string, i uint32, got core.Entity, err error) {
		if err != nil || got != want[i] {
			l.fail("%s: %v = %v, %v", rung, in.leaves[i], got, err)
		}
	}

	var sink core.Entity
	coreCall := func(k int) { sink, _ = w.Resolve(ctx, in.leaves[seq[k]]) }
	rep.set("core.resolve_ns", "ns", l.chunked("core.resolve", len(seq), coreCall))
	rep.set("core.resolve_allocs", "count", allocsPer(len(seq), coreCall))
	_ = sink

	srv := nameserver.NewServer(w, ctx)
	srv.WatchExport(tree.Root)
	defer srv.Close()

	near, far := net.Pipe()
	go srv.ServeConn(far)
	pipe := nameserver.NewClient(near)
	pipeCall := func(k int) {
		got, err := pipe.Resolve(in.leaves[seq[k]])
		check("pipe", seq[k], got, err)
	}
	rep.set("nameserver.pipe_rtt_ns", "ns", p50(l.each("nameserver.pipe", len(seq), pipeCall)))
	rep.set("nameserver.pipe_allocs_per_op", "count", allocsPer(len(seq)/5, pipeCall))
	_ = pipe.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var cc, sc connCounts
	go srv.Serve(countingListener{ln, &sc})
	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	tcp := nameserver.NewClient(countingConn{conn, &cc})
	defer tcp.Close()
	if err := tcp.Err(); err != nil {
		return err
	}
	perOp := func(suffix string, n int, c0, s0 [4]int64) {
		c1, s1 := cc.snapshot(), sc.snapshot()
		f := func(a, b int64) float64 { return float64(a-b) / float64(n) }
		rep.set("nameserver.client_reads_per_op"+suffix, "count", f(c1[0], c0[0]))
		rep.set("nameserver.client_writes_per_op"+suffix, "count", f(c1[1], c0[1]))
		rep.set("nameserver.server_reads_per_op"+suffix, "count", f(s1[0], s0[0]))
		rep.set("nameserver.server_writes_per_op"+suffix, "count", f(s1[1], s0[1]))
		if suffix == ".d1" {
			rep.set("nameserver.req_bytes_per_op", "bytes", f(c1[3], c0[3]))
			rep.set("nameserver.resp_bytes_per_op", "bytes", f(s1[3], s0[3]))
		}
	}

	c0, s0 := cc.snapshot(), sc.snapshot()
	d := l.each("nameserver.tcp", len(seq), func(k int) {
		got, err := tcp.Resolve(in.leaves[seq[k]])
		check("tcp", seq[k], got, err)
	})
	perOp(".d1", len(seq), c0, s0)
	rep.set("nameserver.tcp_rtt_ns", "ns", p50(d))

	// Depth 64: the callers share the op list through one cursor.
	c0, s0 = cc.snapshot(), sc.snapshot()
	slow := l.slowdown()
	rung := l.tr.open(l.root, "nameserver.tcp_d64")
	var cursor, wrong atomic.Int64
	var wg sync.WaitGroup
	lat := make([][]int64, 64)
	began := time.Now()
	for g := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for k := int(cursor.Add(1)) - 1; k < len(seq); k = int(cursor.Add(1)) - 1 {
				got, err := tcp.Resolve(in.leaves[seq[k]])
				t1 := time.Now()
				if err != nil || got != want[seq[k]] {
					wrong.Add(1)
				}
				l.tr.add(rung, "nameserver.tcp_d64.call", t0, t1)
				lat[g] = append(lat[g], int64(t1.Sub(t0)))
				t0 = t1
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(began)
	l.tr.close(rung)
	if n := wrong.Load(); n > 0 {
		l.fail("tcp depth 64: %d wrong answers", n)
	}
	perOp(".d64", len(seq), c0, s0)
	all := slices.Concat(lat...)
	slices.Sort(all)
	rep.attempted += int64(len(seq))
	rep.set("nameserver.tcp_d64_names_per_s", "1/s", float64(len(seq))/elapsed.Seconds()*slow)
	rep.set("nameserver.p99_us", "us", float64(percentile(all, tailQuantile(len(all), 0.99)))/1e3/slow)

	batch := make([]core.Path, batchSize)
	d = l.each("nameserver.batch16", len(seq)/batchSize, func(k int) {
		for j := range batch {
			batch[j] = in.leaves[seq[k*batchSize+j]]
		}
		res, err := tcp.ResolveBatch(batch)
		for j := range batch {
			if err != nil || res[j].Err != nil || res[j].Entity != want[seq[k*batchSize+j]] {
				l.fail("batch16: %v wrong, %v", batch[j], err)
			}
		}
	})
	rep.set("nameserver.batch16_rtt_ns", "ns", p50(d))

	// The wire client's own cache, all hits: the cluster path bypasses it.
	cconn, err := nameserver.Dial("tcp", addr, nameserver.WithCache(chunk))
	if err != nil {
		return err
	}
	hot := seq[:chunk]
	for _, i := range hot {
		got, err := cconn.Resolve(in.leaves[i])
		check("cache fill", i, got, err)
	}
	rep.set("nameserver.cache_hit_ns", "ns", l.chunked("nameserver.cache_hit", len(seq), func(k int) {
		sink, _ = cconn.Resolve(in.leaves[hot[k%chunk]])
	}))
	_ = cconn.Close()

	// Write path, bottom up: apply under the write lock, the same over the
	// wire, and a revision bump's flight to a subscriber.
	targets := [2]core.Entity{w.MustResolve(ctx, in.targets[0]), w.MustResolve(ctx, in.targets[1])}
	cycles := len(seq) / 10
	toggle := func(unbind func(core.Path, core.Name) (uint64, error), bind func(core.Path, core.Name, core.Entity) (uint64, error)) func(int) {
		return func(k int) {
			v := k % numVictim
			_, err := unbind(in.victimDir, in.victims[v])
			if err == nil {
				// Every victim has been rebound k/numVictim times before.
				_, err = bind(in.victimDir, in.victims[v], targets[(k/numVictim+1)%2])
			}
			if err != nil {
				l.fail("write rung cycle %d: %v", k, err)
			}
		}
	}
	rep.set("nameserver.apply_ns", "ns", p50(l.each("nameserver.apply", cycles-cycles%(2*numVictim), toggle(srv.Unbind, srv.Bind))))
	rep.set("nameserver.write_rtt_ns", "ns", p50(l.each("nameserver.write", cycles-cycles%(2*numVictim), toggle(tcp.Unbind, tcp.Bind))))

	sub, err := nameserver.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer sub.Close()
	pushed := make(chan time.Time, 1)
	if err := sub.Subscribe(func(uint64) { pushed <- time.Now() }); err != nil {
		return err
	}
	slow = l.slowdown()
	rung = l.tr.open(l.root, "nameserver.push")
	lags := make([]int64, 0, cycles)
	for k := 0; k < cycles; k++ {
		t0 := time.Now()
		srv.Bump()
		select {
		case t1 := <-pushed:
			l.tr.add(rung, "nameserver.push.flight", t0, t1)
			lags = append(lags, int64(float64(t1.Sub(t0))/slow))
		case <-time.After(visibleLimit):
			l.fail("push %d never arrived", k)
		}
	}
	l.tr.close(rung)
	rep.attempted += int64(cycles)
	slices.Sort(lags)
	rep.set("nameserver.push_lag_ns", "ns", p50(lags))
	return nil
}

// lruRung drives lru.Cache alone with the workload's key sequence at the
// reader's cache size.
func (l *rungs) lruRung() {
	const capacity = 4096
	keys := make([]string, len(l.seq))
	for k, i := range l.seq {
		keys[k] = l.in.leaves[i].String()
	}
	c := lru.New[string, core.Entity](capacity)
	for _, key := range keys { // reach the sequence's steady state
		if _, ok := c.Get(key); !ok {
			c.Put(key, core.Entity{ID: 1})
		}
	}
	var sink bool
	l.rep.set("lru.get_ns", "ns", l.chunked("lru.get", len(keys), func(k int) { _, sink = c.Get(keys[k]) }))
	_ = sink
	fresh := make([]string, len(keys))
	for k := range fresh {
		fresh[k] = "new/" + strconv.Itoa(k)
	}
	l.rep.set("lru.put_evict_ns", "ns", l.chunked("lru.put_evict", len(fresh), func(k int) { c.Put(fresh[k], core.Entity{ID: 1}) }))
}

// clusterRung builds the sharded, replicated cluster in this process and
// measures the cluster client's hit, miss and write paths against it.
func (l *rungs) clusterRung(spec string) error {
	rep, in, seq := l.rep, l.in, l.seq
	cl, err := cluster.NewReplicated(core.NewWorld(), spec, 2, 2)
	if err != nil {
		return err
	}
	defer cl.Close()
	seed := cl.Addrs()[0]

	bare, err := cluster.Dial("tcp", seed)
	if err != nil {
		return err
	}
	defer bare.Close()
	want, err := prime(bare, in)
	if err != nil {
		return err
	}
	d := l.each("cluster.miss", len(seq)/5, func(k int) {
		if got, err := bare.Resolve(in.leaves[seq[k]]); err != nil || got != want[seq[k]] {
			l.fail("cluster miss: %v = %v, %v", in.leaves[seq[k]], got, err)
		}
	})
	rep.set("cluster.miss_ns", "ns", p50(d))

	cached, err := cluster.Dial("tcp", seed, cluster.WithLRU(numLeaves))
	if err != nil {
		return err
	}
	defer cached.Close()
	if _, err := prime(cached, in); err != nil {
		return err
	}
	rep.set("cluster.hit_ns", "ns", l.chunked("cluster.hit", len(seq), func(k int) {
		if got, err := cached.Resolve(in.leaves[seq[k]]); err != nil || got != want[seq[k]] {
			l.fail("cluster hit: %v = %v, %v", in.leaves[seq[k]], got, err)
		}
	}))

	// Writes through the cluster client: primary commit, replicator
	// enqueue inside it, and the backup catching up.
	var targets [2]core.Entity
	for i, p := range in.targets {
		if targets[i], err = bare.Resolve(p); err != nil {
			return err
		}
	}
	shard := bare.Routes().ShardFor(in.victimPath(0))
	backup, err := nameserver.Dial("tcp", bare.Routes().ReplicaAddrs(shard)[1])
	if err != nil {
		return err
	}
	defer backup.Close()
	cycles := len(seq) / 10
	cycles -= cycles % (2 * numVictim)
	// rebind runs write cycle k and returns the path written and its new target.
	rebind := func(k int) (core.Path, core.Entity, bool) {
		v := k % numVictim
		fresh := targets[(k/numVictim+1)%2]
		err := bare.Unbind(in.victimDir, in.victims[v])
		if err == nil {
			err = bare.Bind(in.victimDir, in.victims[v], fresh)
		}
		if err != nil {
			l.fail("cluster write cycle %d: %v", k, err)
		}
		return in.victimPath(v), fresh, err == nil
	}
	d = l.each("cluster.write", cycles, func(k int) { rebind(k) })

	// Replication lag: further cycles, each followed by polling the backup
	// directly until it has the binding the primary just acknowledged.
	lags := l.each("cluster.replicate", cycles/8, func(k int) {
		path, fresh, ok := rebind(cycles + k)
		for ack := time.Now(); ok; {
			got, err := backup.Resolve(path)
			if err == nil && got == fresh {
				return
			}
			if time.Since(ack) > visibleLimit {
				l.fail("backup never saw %v: %v, %v", path, got, err)
				return
			}
		}
	})
	rep.set("cluster.write_rtt_ns", "ns", p50(d))
	rep.set("cluster.write_p99_us", "us", float64(percentile(d, tailQuantile(len(d), 0.99)))/1e3)
	// A replicate call is a write cycle plus the wait for the backup.
	rep.set("cluster.replicate_lag_us", "us", max(0, p50(lags)-p50(d))/1e3)
	return nil
}

// snapRung snapshots the ladder's tree into a local store in a temporary
// directory: full, incremental after one rebind, and restore.
func (l *rungs) snapRung(out string, w *core.World, tree *dirtree.Tree) error {
	rep, in := l.rep, l.in
	dir, err := tempDir(out, "snap-")
	if err != nil {
		return err
	}
	defer removeDir(dir)
	st, err := snapstore.Open(dir)
	if err != nil {
		return err
	}
	ms, err := l.timed("snapstore.snapshot_full", func() error { _, err := st.Snapshot(w, tree.Root); return err })
	if err != nil {
		return err
	}
	rep.set("snapstore.snapshot_full_ms", "ms", ms)

	// Each incremental snapshot follows one rebind of a victim no earlier
	// one touched, so each stores the same number of new blobs: the changed
	// directory and its ancestors.
	other := w.MustResolve(tree.RootContext(), in.targets[1])
	var took []float64
	var puts, bytes int64
	var root cas.Hash
	for v := 0; v < 5; v++ {
		if err := tree.Detach(in.victimDir, in.victims[v]); err != nil {
			return err
		}
		if err := tree.Attach(in.victimDir, in.victims[v], other); err != nil {
			return err
		}
		before := st.CAS().Stats()
		ms, err := l.timed("snapstore.snapshot_incr", func() (err error) {
			root, err = st.Snapshot(w, tree.Root)
			return err
		})
		if err != nil {
			return err
		}
		took = append(took, ms)
		after := st.CAS().Stats()
		puts, bytes = int64(after.Stored-before.Stored), after.StoredBytes-before.StoredBytes
	}
	rep.set("snapstore.snapshot_incr_ms", "ms", median(took))
	rep.set("cas.puts_per_incr_snapshot", "count", float64(puts))
	rep.set("cas.bytes_per_incr_snapshot", "bytes", float64(bytes))
	rep.set("cas.dedup_ratio", "ratio", st.CAS().Stats().DedupRatio())

	ms, err = l.timed("snapstore.restore", func() error {
		_, err := st.Restore(root, core.NewWorld(), "restored")
		return err
	})
	rep.set("snapstore.restore_ms", "ms", ms)
	return err
}

package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/core"
)

const (
	// window is the grain at which throughput and latency are summarised:
	// each metric is the median over windows, which a stall confined to one
	// window cannot move. The first window is warm-up and is dropped.
	window = time.Second
	// visibleLimit fails a write cycle whose new binding the reader still
	// has not seen.
	visibleLimit = 2 * time.Second
	// probeEvery spaces the prober's reads while the reader still answers
	// with the old target.
	probeEvery = 20 * time.Microsecond
)

// complain reports the first few wrong answers in full; the rest are only
// counted.
func complain(format string, a ...any) {
	if complaints.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "nsload: wrong: "+format+"\n", a...)
	}
}

var complaints atomic.Int32

// env is what every run needs to find and build things.
type env struct {
	root string // repository checkout
	out  string // root/bench/out: binaries, specs, data directories, traces
	nsd  string // built nsd binary
	cpu  int    // the one CPU generator and nsd share
	// setUps is how many times a run sets the system up; setup_s is their
	// median, so one cold build or slow fsync does not decide it.
	setUps int
	// restarts is how many SIGTERM → restart → first answer cycles the
	// traced run times; nsd.recover_s is their median. The untraced run
	// restarts once, for the check that no acknowledged write was lost.
	restarts int
	// ladderOps is how many names each rung of the traced ladder replays.
	ladderOps int
}

// counts tallies correctness: every name resolved, every write and every
// probe read is one attempt.
type counts struct{ attempted, failed int64 }

func (c *counts) add(o counts) { c.attempted += o.attempted; c.failed += o.failed }

// setUp builds nsd (a no-op after the first time, but timed every time, as
// a user pays it), writes the spec, starts nsd, dials the reader and primes.
func (e *env) setUp(wl workload, in *inputs) (*instance, error) {
	began := time.Now()
	bin, err := goBuild(e.root, e.out, "./cmd/nsd")
	if err != nil {
		return nil, err
	}
	e.nsd = bin
	it := &instance{}
	if it.dir, err = tempDir(e.out, "run-"); err != nil {
		return nil, err
	}
	spec := it.dir + "/tree.spec"
	if err := in.writeSpec(spec); err != nil {
		return nil, err
	}
	it.args = wl.nsdArgs(spec, it.dir+"/data")
	if it.proc, err = startChild(e.nsd, it.args...); err != nil {
		return nil, err
	}
	if it.reader, err = wl.dial(it.proc.addr, true); err != nil {
		it.tearDown()
		return nil, err
	}
	if it.want, err = prime(it.reader, in); err != nil {
		it.tearDown()
		return nil, err
	}
	for i, p := range in.targets {
		if it.targets[i], err = it.reader.Resolve(p); err != nil {
			it.tearDown()
			return nil, fmt.Errorf("resolve write target: %w", err)
		}
	}
	it.took = time.Since(began)
	return it, nil
}

// nanos is d as the logs keep it: 32 bits of ns, saturating at 4.3s, which
// is beyond anything a reported percentile could be without failing the run.
func nanos(d time.Duration) uint32 { return uint32(min(d, time.Duration(^uint32(0)))) }

// callerLog is what one closed-loop caller recorded, by slice.
type callerLog struct {
	lat   [][]uint32 // per-call latency in ns
	names []int64    // names resolved
	counts
}

// caller runs one closed loop over its part of the op stream until the
// gate ends the run. One clock reading ends a call and starts the next:
// the generator's own work between calls (an index, a comparison) is inside
// the latency, as it would be for any real caller, and is a few ns.
func caller(wl workload, in *inputs, it *instance, offset, nslices int, g *gate, tr *tracer, parent uint32) *callerLog {
	lg := &callerLog{lat: make([][]uint32, nslices), names: make([]int64, nslices)}
	stream := in.stream(wl)
	cur := offset % len(stream)
	next := func() uint32 {
		i := stream[cur]
		if cur++; cur == len(stream) {
			cur = 0
		}
		return i
	}
	batch := make([]core.Path, batchSize)
	idx := make([]uint32, batchSize)
	t0 := time.Now()
	for op := 1; ; op++ {
		if g.shut.Load() {
			if !g.pass() {
				return lg
			}
			t0 = time.Now()
		}
		sl := g.slice.Load()
		n, what := int64(1), "process.resolve"
		if wl.zipf && op%batchEach == 0 {
			n, what = batchSize, "process.batch16"
			for k := range batch {
				idx[k] = next()
				batch[k] = in.leaves[idx[k]]
			}
			res, err := it.reader.ResolveBatch(batch)
			for k := range batch {
				if err != nil || res[k].Err != nil || res[k].Entity != it.want[idx[k]] {
					complain("batch: %v: %v, want %v", batch[k], err, it.want[idx[k]])
					lg.failed++
				}
			}
		} else {
			i := next()
			if e, err := it.reader.Resolve(in.leaves[i]); err != nil || e != it.want[i] {
				complain("%v = %v (%v), want %v", in.leaves[i], e, err, it.want[i])
				lg.failed++
			}
		}
		lg.attempted += n
		t1 := time.Now()
		tr.add(parent, what, t0, t1)
		lg.lat[sl] = append(lg.lat[sl], nanos(t1.Sub(t0)))
		lg.names[sl] += n
		t0 = t1
	}
}

// writeLog is what the open-loop writer and its prober recorded, by slice.
type writeLog struct {
	write   [][]uint32 // due → ack, ns
	visible [][]uint32 // ack → reader resolves the new target, ns
	cycles  int
	stale   int // cycles whose first read after the ack was the old target
	lateMax time.Duration
	counts
}

// churn runs Unbind+Bind cycles on the writer's own connection, the j-th
// cycle of a slice due j/writeRate after the slice began, until the gate
// ends the run. Around each cycle it reads the victim through the reader:
// once before, so the old binding is in the reader's cache, and after the
// ack until the new target comes back.
func churn(in *inputs, it *instance, w *client, nslices int, g *gate, tr *tracer, parent uint32) *writeLog {
	lg := &writeLog{write: make([][]uint32, nslices), visible: make([][]uint32, nslices)}
	var began time.Time
	j := 0
	for k := 0; ; k++ {
		if g.shut.Load() && !g.pass() {
			return lg
		}
		if s := g.sliceStart(); s != began {
			began, j = s, 0
		}
		sl := g.slice.Load()
		v := int(in.victimOrder[k%len(in.victimOrder)])
		name, path := in.victims[v], in.victimPath(v)
		old, fresh := it.targets[it.bound[v]], it.targets[1-it.bound[v]]
		lg.attempted++
		if e, err := it.reader.Resolve(path); err != nil || e != old {
			complain("before cycle %d: %v = %v (%v), acknowledged %v", k, path, e, err, old)
			lg.failed++
		}
		due := began.Add(time.Duration(j) * time.Second / writeRate)
		j++
		time.Sleep(time.Until(due))
		if g.shut.Load() {
			continue // the slice ended while this cycle waited to be due
		}
		lg.lateMax = max(lg.lateMax, time.Since(due))
		lg.attempted += 2
		if err := w.unbind(in.victimDir, name); err != nil {
			complain("cycle %d: unbind %v: %v", k, path, err)
			lg.failed += 2
			continue
		}
		if err := w.bind(in.victimDir, name, fresh); err != nil {
			// The victim is now unbound; nothing later can be checked.
			complain("cycle %d: bind %v: %v", k, path, err)
			lg.failed++
			for g.pass() {
				time.Sleep(time.Millisecond)
			}
			return lg
		}
		ack := time.Now()
		it.bound[v] = 1 - it.bound[v]
		lg.cycles++
		lg.write[sl] = append(lg.write[sl], nanos(ack.Sub(due)))
		tr.add(parent, "process.write", due, ack)
		interrupted := false
		for first := true; ; first = false {
			lg.attempted++
			e, err := it.reader.Resolve(path)
			now := time.Now()
			if err == nil && e == fresh {
				if !interrupted {
					lg.visible[sl] = append(lg.visible[sl], nanos(now.Sub(ack)))
					tr.add(parent, "process.visible", ack, now)
				}
				break
			}
			if first && err == nil && e == old {
				lg.stale++
			} else if err != nil || e != old || now.Sub(ack) > visibleLimit {
				complain("cycle %d: %v = %v (%v) %v after the ack of %v", k, path, e, err, now.Sub(ack), fresh)
				lg.failed++
				break
			}
			// A reader that is not subscribed learns of the write from its
			// callers' next miss, and parked callers miss nothing: wait the
			// pause out here, and do not count this cycle's lag.
			if g.shut.Load() {
				interrupted = true
				if !g.pass() {
					return lg
				}
				ack = time.Now()
			}
			// A stale answer is a cache hit: asking again at once would spin
			// on this CPU, which the push that ends the wait also needs.
			time.Sleep(probeEvery)
		}
	}
}

// measured is the outcome of the timed section, by slice. Window 0 (the
// first perWindow slices) is the warm-up; read metrics cover windows
// [1, readEnd), write metrics [writeFrom, windows).
type measured struct {
	windows, readEnd, writeFrom int
	active                      []time.Duration // how long each slice ran
	speed                       []speed         // the probe after each slice
	lat                         [][]uint32      // every caller's per-call latencies
	names                       []int64
	serverCPU                   time.Duration // nsd user+sys over the read windows
	writes                      *writeLog
	counts
}

// slowdown is how much slower than the reference speed slice i ran.
func (m *measured) slowdown(i int) float64 { return m.speed[i].slowdown() }

// drive runs the warm-up window and seconds measured windows against it.
// With a tracer, every call and write cycle is also recorded as a span
// under parent.
func drive(wl workload, in *inputs, it *instance, ref *reference, seconds int, tr *tracer, parent uint32) (*measured, error) {
	m := &measured{windows: 1 + seconds, readEnd: 1 + seconds, writeFrom: 1}
	if wl.writeFrom > 0 {
		m.readEnd = 1 + int(float64(seconds)*wl.writeFrom)
		m.writeFrom = m.readEnd
	}
	nslices := m.windows * perWindow
	wr, err := wl.dial(it.proc.addr, false)
	if err != nil {
		return nil, err
	}
	defer wr.close()

	g := newGate()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer g.end()
	logs := make([]*callerLog, wl.callers)
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = caller(wl, in, it, c*(opNames/wl.callers), nslices, g, tr, parent)
		}()
	}
	workers := wl.callers
	var cpu [2]time.Duration
	for i := 0; i <= nslices; i++ {
		// The CPU readings bracket the read windows, taken while parked.
		for k, at := range []int{perWindow, m.readEnd * perWindow} {
			if i == at {
				if cpu[k], err = it.proc.cpuNow(); err != nil {
					return nil, fmt.Errorf("read nsd cpu time: %w", err)
				}
			}
		}
		if i == nslices {
			break
		}
		if i == m.writeFrom*perWindow {
			workers++
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.writes = churn(in, it, wr, nslices, g, tr, parent)
			}()
		}
		g.open(i)
		time.Sleep(sliceActive)
		m.active = append(m.active, g.close(workers))
		sp, err := ref.probe(1)
		if err != nil {
			return nil, err
		}
		m.speed = append(m.speed, sp)
	}
	g.end()
	wg.Wait()
	m.serverCPU = cpu[1] - cpu[0]

	m.lat, m.names = make([][]uint32, nslices), make([]int64, nslices)
	for i := range m.lat {
		for _, lg := range logs {
			m.lat[i] = append(m.lat[i], lg.lat[i]...)
			m.names[i] += lg.names[i]
		}
	}
	for _, lg := range logs {
		m.add(lg.counts)
	}
	m.add(m.writes.counts)
	return m, nil
}

// series is one drive summarised: a value per window for every figure,
// from samples scaled to the reference speed — each latency divided by its
// own slice's slowdown, each name multiplied by it — and the raw value
// beside it under "raw."+name. Window 0 is the warm-up and is left out; a
// reported metric is the median over its series.
type series map[string][]float64

func (m *measured) series() series {
	out := series{}
	add := func(name string, scaled, raw float64) {
		out[name] = append(out[name], scaled)
		out["raw."+name] = append(out["raw."+name], raw)
	}
	for w := 1; w < m.windows; w++ {
		var active time.Duration
		var names, scaledNames, slow, echo, hop float64
		var lat, write, visible [2][]float64 // scaled, raw
		scale := func(dst *[2][]float64, samples []uint32, by float64) {
			for _, ns := range samples {
				dst[0] = append(dst[0], float64(ns)/1e3/by)
				dst[1] = append(dst[1], float64(ns)/1e3)
			}
		}
		for i := w * perWindow; i < (w+1)*perWindow; i++ {
			by := m.slowdown(i)
			slow += by / float64(perWindow)
			echo += float64(m.speed[i].echo.Nanoseconds()) / 1e3 / float64(perWindow)
			hop += m.speed[i].hop / float64(perWindow)
			active += m.active[i]
			names += float64(m.names[i])
			scaledNames += float64(m.names[i]) * by
			scale(&lat, m.lat[i], by)
			if m.writes != nil {
				scale(&write, m.writes.write[i], by)
				scale(&visible, m.writes.visible[i], by)
			}
		}
		for _, v := range [][]float64{lat[0], lat[1], write[0], write[1], visible[0], visible[1]} {
			slices.Sort(v)
		}
		if w < m.readEnd {
			out["slowdown"] = append(out["slowdown"], slow)
			out["echo_us"] = append(out["echo_us"], echo)
			out["hop_ns"] = append(out["hop_ns"], hop)
			out["resolve_calls"] = append(out["resolve_calls"], float64(len(lat[0])))
			add("names_per_s", scaledNames/active.Seconds(), names/active.Seconds())
			q := tailQuantile(len(lat[0]), 0.99)
			out["resolve_tail_quantile"] = append(out["resolve_tail_quantile"], q)
			add("resolve_p50_us", percentile(lat[0], 0.5), percentile(lat[1], 0.5))
			add("resolve_p90_us", percentile(lat[0], 0.9), percentile(lat[1], 0.9))
			add("resolve_p99_us", percentile(lat[0], q), percentile(lat[1], q))
		}
		if w >= m.writeFrom && len(visible[0]) >= 10 { // fewer cycles than that have no median
			add("write_p50_us", percentile(write[0], 0.5), percentile(write[1], 0.5))
			add("visible_lag_p50_us", percentile(visible[0], 0.5), percentile(visible[1], 0.5))
			out["write_raw_us"] = append(out["write_raw_us"], write[1]...)
		}
	}
	return out
}

// cpuPerName is nsd's CPU time over the read windows per name resolved in
// them, in µs: at the reference speed (each slice's names count scaled, as
// in a rate) and raw.
func (m *measured) cpuPerName() (scaled, raw float64) {
	names, scaledNames := 0.0, 0.0
	for i := perWindow; i < m.readEnd*perWindow; i++ {
		names += float64(m.names[i])
		scaledNames += float64(m.names[i]) * m.slowdown(i)
	}
	us := float64(m.serverCPU.Microseconds())
	return us / scaledNames, us / names
}

// recovery is the outcome of the restart cycles.
type recovery struct {
	seconds []float64 // at the reference speed
	raw     []float64
	first   *child  // the instance the timed section ran against, exited
	peakRSS float64 // its resident-set high-water mark before SIGTERM, MB
	counts
}

// restart times SIGTERM → new nsd on the same arguments → first answer,
// n times over, with one acknowledged write before each SIGTERM
// so there is always something to flush and recover. After each restart
// every victim must resolve to what a server of this configuration owes:
// its last acknowledged target when durable, the spec's binding otherwise.
func (e *env) restart(wl workload, in *inputs, it *instance, ref *reference, n int) (*recovery, error) {
	rc := &recovery{}
	for i := 0; i < n; i++ {
		sp, err := ref.probe(10)
		if err != nil {
			return nil, err
		}
		w, err := wl.dial(it.proc.addr, false)
		if err != nil {
			return nil, err
		}
		v := i % numVictim
		rc.attempted += 2
		err = w.unbind(in.victimDir, in.victims[v])
		if err == nil {
			err = w.bind(in.victimDir, in.victims[v], it.targets[1-it.bound[v]])
		}
		w.close()
		if err != nil {
			return nil, fmt.Errorf("write before restart: %w", err)
		}
		it.bound[v] = 1 - it.bound[v]
		it.reader.close()
		it.reader = nil

		if rc.first == nil {
			rc.first = it.proc
			if rc.peakRSS, err = it.proc.peakRSS(); err != nil {
				return nil, err
			}
		}
		began := time.Now()
		if err := it.proc.terminate(); err != nil {
			return nil, err
		}
		if it.proc, err = startChild(e.nsd, it.args...); err != nil {
			return nil, err
		}
		if it.reader, err = wl.dial(it.proc.addr, true); err != nil {
			return nil, err
		}
		rc.attempted++
		if got, err := it.reader.Resolve(in.leaves[0]); err != nil || got.IsUndefined() {
			rc.failed++
		}
		took := time.Since(began).Seconds()
		rc.raw = append(rc.raw, took)
		rc.seconds = append(rc.seconds, took/sp.echoSlowdown())

		// A restored graph mints fresh entity ids, so "the acknowledged
		// target" is whatever the target's own name resolves to now.
		for i, p := range in.targets {
			if it.targets[i], err = it.reader.Resolve(p); err != nil {
				return nil, fmt.Errorf("resolve write target after restart: %w", err)
			}
		}
		for v := range in.victims {
			owed := it.targets[0]
			if wl.durable {
				owed = it.targets[it.bound[v]]
			}
			rc.attempted++
			if got, err := it.reader.Resolve(in.victimPath(v)); err != nil || got != owed {
				complain("after restart %d: %v = %v (%v), acknowledged %v", i, in.victimPath(v), got, err, owed)
				rc.failed++
			}
		}
		if !wl.durable {
			it.bound = [numVictim]int{}
		}
	}
	return rc, nil
}

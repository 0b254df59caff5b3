// Command nsload is the repository's benchmark: it builds nsd, starts it as
// a separate process on loopback, drives it from this one process over TCP
// with a seeded op stream, checks every answer against a priming pass, and
// prints each metric by name with its unit. See ../README.md.
//
//	nsload -workload serial-uniform -seed 1 -seconds 24 -trace 0
//	nsload -selfcheck        # every workload twice, spreads against bounds
//	nsload -smoke            # every workload for about a second
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is what a bare run uses; heldOutSeed is never used while a
// change is being written, so a claim can be checked on inputs it did not
// see (see README).
const (
	defaultSeed = 1
	heldOutSeed = 7919
	// runLimit ends a run that has wedged: children are killed and the
	// process exits non-zero without printing a result.
	runLimit = 170 * time.Second
)

func main() {
	root := flag.String("root", ".", "repository checkout to build nsd from")
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Int("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: run the traced layer ladder and report per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare spreads with bounds")
	smoke := flag.Bool("smoke", false, "run every workload briefly, both modes, no bounds")
	list := flag.Bool("list", false, "list workloads and why each exists")
	flag.Parse()

	if *list {
		for _, wl := range workloads {
			fmt.Printf("%-18s %s\n", wl.name, wl.why)
		}
		return
	}
	cpu, err := pinToOneCPU()
	if err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(1)

	e, err := newEnv(*root)
	if err != nil {
		fatal(err)
	}
	e.cpu = cpu
	// Children die with us on every path: deferred tear-downs on return,
	// abandon from the signal handler and the watchdog, and the kernel (see
	// child) on anything that cannot run code, such as a panic.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		abandon()
		os.Exit(130)
	}()

	switch {
	case *selfcheck:
		err = e.selfcheck(*seed, *seconds)
	case *smoke:
		err = e.smoke(*seed)
	default:
		wl, ok := workloadNamed(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (try -list)", *name))
		}
		var rep *report
		if rep, err = e.run(wl, *seed, *seconds, *trace != 0); err == nil {
			err = rep.print()
		}
	}
	if err != nil {
		abandon()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsload:", err)
	os.Exit(1)
}

func newEnv(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(abs + "/cmd/nsd"); err != nil {
		return nil, fmt.Errorf("-root %s is not the repository: %w", root, err)
	}
	e := &env{root: abs, out: abs + "/bench/out", setUps: 3, restarts: 5, ladderOps: ladderOps}
	return e, os.MkdirAll(e.out+"/bin", 0o755)
}

// host is the fingerprint recorded beside every result.
type host struct {
	Commit     string `json:"commit"`
	CPU        int    `json:"pinned_cpu"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func (e *env) fingerprint() host {
	h := host{
		Commit:     "unknown", // a checkout without .git has none
		CPU:        e.cpu,
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		LoadStart:  readTrim("/proc/loadavg"),
	}
	if head := readTrim(e.root + "/.git/HEAD"); strings.HasPrefix(head, "ref: ") {
		h.Commit = readTrim(e.root + "/.git/" + strings.TrimPrefix(head, "ref: "))
	} else if head != "unknown" {
		h.Commit = head
	}
	return h
}

// report is one run's full outcome; bench/out/result-*.json holds it, and
// the contract line printed last holds the part BENCHMARK.json names.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Counts   map[string]int     `json:"sample_counts"`
	Metrics  map[string]float64 `json:"metrics"`
	// Windows holds the per-window series the medians were taken over.
	Windows map[string][]float64 `json:"windows,omitempty"`
	counts
	units map[string]string
	path  string
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = v
	r.units[name] = unit
}

// setBoth records a time-valued metric at the reference speed and, under
// "raw."+name, as the clock read it.
func (r *report) setBoth(name, unit string, scaled, raw float64) {
	r.set(name, unit, scaled)
	r.set("raw."+name, unit, raw)
}

// run sets the system up, measures one workload and tears everything down.
func (e *env) run(wl workload, seed uint64, seconds int, trace bool) (*report, error) {
	watchdog := time.AfterFunc(runLimit, func() {
		abandon()
		fatal(fmt.Errorf("%s: still running after %v", wl.name, runLimit))
	})
	defer watchdog.Stop()

	rep := &report{
		Workload: wl.name, Seed: seed, Seconds: seconds, Trace: trace,
		Host: e.fingerprint(), Counts: map[string]int{},
		Metrics: map[string]float64{}, units: map[string]string{},
		path: fmt.Sprintf("%s/result-%s-trace%d.json", e.out, wl.name, b2i(trace)),
	}
	in := generate(seed)

	ref, err := e.startReference()
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	var it *instance
	var took, rawTook []float64
	defer func() {
		if it != nil {
			it.tearDown()
		}
	}()
	for i := 0; i < e.setUps; i++ {
		if it != nil {
			it.tearDown()
		}
		sp, err := ref.probe(10)
		if err != nil {
			return nil, err
		}
		if it, err = e.setUp(wl, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		it.slow = sp.echoSlowdown()
		rawTook = append(rawTook, it.took.Seconds())
		took = append(took, it.took.Seconds()/it.slow)
	}
	rep.setBoth("setup_s", "s", median(took), median(rawTook))

	if trace {
		err = e.ladder(wl, in, it, ref, seconds, rep)
	} else {
		err = e.measure(wl, in, it, ref, seconds, rep)
	}
	rep.Host.LoadEnd = readTrim("/proc/loadavg")
	return rep, err
}

// measure is the untraced run: the timed section, then one restart, which
// checks that no acknowledged write was lost.
func (e *env) measure(wl workload, in *inputs, it *instance, ref *reference, seconds int, rep *report) error {
	m, err := drive(wl, in, it, ref, seconds, nil, 0)
	if err != nil {
		return err
	}
	rc, err := e.restart(wl, in, it, ref, 1)
	if err != nil {
		return err
	}
	rep.add(m.counts)
	rep.add(rc.counts)

	sr := m.series()
	if len(sr["write_p50_us"]) == 0 {
		return errors.New("the writer completed too few cycles to report")
	}
	wr := m.writes
	rep.Windows = sr
	rep.Counts["resolve_calls"] = int(sum(sr["resolve_calls"]))
	rep.Counts["read_windows"] = m.readEnd - 1
	rep.Counts["write_cycles"] = wr.cycles
	rep.Counts["write_windows"] = len(sr["write_p50_us"])

	rep.setBoth("names_per_s", "1/s", median(sr["names_per_s"]), median(sr["raw.names_per_s"]))
	for _, name := range []string{"resolve_p50_us", "resolve_p90_us"} {
		rep.setBoth(name, "us", median(sr[name]), median(sr["raw."+name]))
	}
	cpu, rawCPU := m.cpuPerName()
	rep.setBoth("server_cpu_us_per_name", "us", cpu, rawCPU)
	rep.set("nsd_rss_mb", "MB", rc.peakRSS)
	rep.set("fresh_read_frac", "ratio", 1-float64(wr.stale)/float64(wr.cycles))

	// Diagnostics: in the result file and the table, not in the contract.
	// The three too unsteady on this host to carry a bound are per-layer
	// metrics of the traced run (nsd.resolve_p99_us and so on).
	for _, name := range []string{"resolve_p99_us", "write_p50_us", "visible_lag_p50_us"} {
		rep.setBoth("diag."+name, "us", median(sr[name]), median(sr["raw."+name]))
	}
	rep.set("diag.resolve_tail_quantile", "ratio", median(sr["resolve_tail_quantile"]))
	rep.setBoth("diag.recover_s", "s", rc.seconds[0], rc.raw[0])
	writes := sr["write_raw_us"]
	slices.Sort(writes)
	wq := tailQuantile(len(writes), 0.99)
	rep.set("diag.slowdown", "ratio", median(sr["slowdown"]))
	rep.set("diag.ref_echo_us", "us", median(sr["echo_us"]))
	rep.set("diag.ref_hop_ns", "ns", median(sr["hop_ns"]))
	rep.set("diag.raw.write_tail_us", "us", percentile(writes, wq))
	rep.set("diag.write_tail_quantile", "ratio", wq)
	rep.set("diag.late_max_ms", "ms", float64(wr.lateMax.Microseconds())/1e3)
	rep.set("diag.failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	user, sys := rc.first.cpuUsed()
	rep.set("diag.nsd_user_cpu_s", "s", user.Seconds())
	rep.set("diag.nsd_sys_cpu_s", "s", sys.Seconds())
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes the table, the result file, and last the contract line.
func (r *report) print() error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%d trace=%d  %s %s nproc=%d cpu=%d GOMAXPROCS=%d load %s -> %s\n",
		r.Workload, r.Seed, r.Seconds, b2i(r.Trace), r.Host.Go, r.Host.Kernel,
		r.Host.NProc, r.Host.CPU, r.Host.GOMAXPROCS, r.Host.LoadStart, r.Host.LoadEnd)
	for _, n := range names {
		fmt.Printf("%-40s %16.4f %s\n", n, r.Metrics[n], r.units[n])
	}
	fmt.Printf("samples: %v\n", r.Counts)

	full, err := json.MarshalIndent(struct {
		*report
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
	}{r, r.attempted, r.failed}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.path, append(full, '\n'), 0o644); err != nil {
		return err
	}

	picked, missing := pick(defs, r.Metrics)
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, picked})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", r.Workload, r.failed, r.attempted)
	}
	return nil
}

// Command benchjson converts `go test -bench` text output into JSON so CI
// can publish benchmark numbers as a machine-readable artifact. It reads
// benchmark output on stdin and writes one JSON object to stdout mapping
// each benchmark name to its iteration count, ns/op, the allocation pair
// -benchmem reports (B/op, allocs/op), and any custom metrics (names/s
// and friends reported via b.ReportMetric).
//
// Usage:
//
//	go test -bench . | benchjson > BENCH.json
//	benchjson -compare old.json new.json -max-regress 10
//
// Lines that are not benchmark results (headers, PASS, ok) are ignored, so
// the raw `go test` stream can be piped in unfiltered. Repeated runs of
// the same benchmark (-count > 1) are averaged.
//
// Compare mode diffs two documents previously written by convert: every
// benchmark present in both gets a ns/op and allocs/op delta line, plus one
// delta per custom metric counted per operation (a unit ending in "/op",
// such as client-writes/op: a cost, lower is better, and — unlike a rate
// such as names/s — steady on a shared runner). Any regression beyond
// -max-regress percent (default 10) makes the exit status nonzero so CI
// can gate on it. Benchmarks and metrics present in only one
// document are listed but never fail the gate — adding and retiring
// benchmarks is routine, silently shifting their numbers is not.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result holds the parsed measurements for one benchmark name. The
// allocation pair is pointer-typed so runs without -benchmem omit the
// fields instead of reporting a fictitious zero — an allocs_per_op of 0
// is a claim (the allocfree paths make exactly that claim), not a default.
type result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	runs int64 // how many result lines were folded in (for averaging)
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/inflight=8-4   3741   297379 ns/op   3363 names/s
//
// and returns the benchmark name (with the -GOMAXPROCS suffix intact, so
// distinct machine shapes stay distinct) and its measurements. ok is false
// for lines that are not benchmark results.
func parseLine(line string) (name string, r result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r = result{Iterations: iters, runs: 1}
	// The remainder alternates value / unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return fields[0], r, true
}

// fold merges a repeated run of the same benchmark into acc by averaging
// every measurement.
func fold(acc *result, r result) {
	n := float64(acc.runs)
	acc.NsPerOp = (acc.NsPerOp*n + r.NsPerOp) / (n + 1)
	acc.Iterations += r.Iterations
	acc.BytesPerOp = foldPtr(acc.BytesPerOp, r.BytesPerOp, n)
	acc.AllocsPerOp = foldPtr(acc.AllocsPerOp, r.AllocsPerOp, n)
	for unit, v := range r.Metrics {
		if acc.Metrics == nil {
			acc.Metrics = make(map[string]float64)
		}
		acc.Metrics[unit] = (acc.Metrics[unit]*n + v) / (n + 1)
	}
	acc.runs++
}

// foldPtr averages an optional measurement across runs. A run missing the
// measurement counts as zero once any run reported it — mixed streams only
// arise from concatenating -benchmem and plain output, and a visible dip
// beats silently dropping the runs that did measure.
func foldPtr(acc, v *float64, n float64) *float64 {
	if acc == nil && v == nil {
		return nil
	}
	var a, b float64
	if acc != nil {
		a = *acc
	}
	if v != nil {
		b = *v
	}
	m := (a*n + b) / (n + 1)
	return &m
}

// convert reads benchmark text from in and writes the JSON document to out.
func convert(in io.Reader, out io.Writer) error {
	results := make(map[string]*result)
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if acc, seen := results[name]; seen {
			fold(acc, r)
		} else {
			results[name] = &r
			order = append(order, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read bench output: %w", err)
	}
	sort.Strings(order)
	doc := make(map[string]*result, len(results))
	for _, name := range order {
		doc[name] = results[name]
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// readDoc loads one JSON document previously written by convert.
func readDoc(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]result
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// pct is the percent change from old to new. Growth from zero is +Inf: an
// allocation appearing on a zero-alloc path regresses at every threshold.
func pct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / old * 100
}

func pctLabel(p float64) string {
	if math.IsInf(p, 1) {
		return "+∞%"
	}
	return fmt.Sprintf("%+.1f%%", p)
}

// compareDocs writes one delta line per benchmark and reports whether any
// ns/op, allocs/op or counted per-op metric regression exceeds maxRegress
// percent.
func compareDocs(oldDoc, newDoc map[string]result, maxRegress float64, out io.Writer) (regressed bool) {
	names := make([]string, 0, len(newDoc))
	for name := range newDoc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := newDoc[name]
		o, ok := oldDoc[name]
		if !ok {
			fmt.Fprintf(out, "%s: new benchmark (%.1f ns/op), no baseline\n", name, n.NsPerOp)
			continue
		}
		p := pct(o.NsPerOp, n.NsPerOp)
		line := fmt.Sprintf("%s: ns/op %.1f -> %.1f (%s)", name, o.NsPerOp, n.NsPerOp, pctLabel(p))
		if p > maxRegress {
			regressed = true
			line += " REGRESSION"
		}
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil {
			ap := pct(*o.AllocsPerOp, *n.AllocsPerOp)
			line += fmt.Sprintf("; allocs/op %.1f -> %.1f (%s)", *o.AllocsPerOp, *n.AllocsPerOp, pctLabel(ap))
			if ap > maxRegress {
				regressed = true
				line += " REGRESSION"
			}
		}
		units := make([]string, 0, len(n.Metrics))
		for unit := range n.Metrics {
			if _, ok := o.Metrics[unit]; ok && strings.HasSuffix(unit, "/op") {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			mp := pct(o.Metrics[unit], n.Metrics[unit])
			line += fmt.Sprintf("; %s %.4g -> %.4g (%s)", unit, o.Metrics[unit], n.Metrics[unit], pctLabel(mp))
			if mp > maxRegress {
				regressed = true
				line += " REGRESSION"
			}
		}
		fmt.Fprintln(out, line)
	}
	var removed []string
	for name := range oldDoc {
		if _, ok := newDoc[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(out, "%s: removed (was %.1f ns/op)\n", name, oldDoc[name].NsPerOp)
	}
	return regressed
}

// runCompare parses `-compare old.json new.json [-max-regress pct]` (the
// flag may come before or after the files) and returns whether the gate
// tripped.
func runCompare(args []string) (regressed bool, err error) {
	maxRegress := 10.0
	var files []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-max-regress" {
			i++
			if i == len(args) {
				return false, fmt.Errorf("-max-regress needs a percentage")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				return false, fmt.Errorf("-max-regress %q: not a number", args[i])
			}
			maxRegress = v
			continue
		}
		files = append(files, args[i])
	}
	if len(files) != 2 {
		return false, fmt.Errorf("usage: benchjson -compare old.json new.json [-max-regress pct]")
	}
	oldDoc, err := readDoc(files[0])
	if err != nil {
		return false, err
	}
	newDoc, err := readDoc(files[1])
	if err != nil {
		return false, err
	}
	return compareDocs(oldDoc, newDoc, maxRegress, os.Stdout), nil
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-compare" {
		regressed, err := runCompare(args[1:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchjson < bench.txt > BENCH.json")
		fmt.Fprintln(os.Stderr, "   or: benchjson -compare old.json new.json [-max-regress pct]")
		os.Exit(2)
	}
	if err := convert(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

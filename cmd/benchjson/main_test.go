package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: namecoherence
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNameServerRoundTrip/uncached-4         	  253170	      4742 ns/op
BenchmarkNameServerPipelined/inflight=1-4       	     520	   2357100 ns/op	       424.3 names/s
BenchmarkNameServerPipelined/inflight=64-4      	   27638	     45453 ns/op	     22001 names/s
PASS
ok  	namecoherence	8.264s
`

func parse(t *testing.T, in string) map[string]result {
	t.Helper()
	var out bytes.Buffer
	if err := convert(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]result
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	return doc
}

func TestConvertSample(t *testing.T) {
	doc := parse(t, sample)
	if len(doc) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %v", len(doc), doc)
	}
	rt := doc["BenchmarkNameServerRoundTrip/uncached-4"]
	if rt.NsPerOp != 4742 || rt.Iterations != 253170 {
		t.Errorf("round trip = %+v, want 4742 ns/op over 253170 iterations", rt)
	}
	if len(rt.Metrics) != 0 {
		t.Errorf("round trip has unexpected metrics: %v", rt.Metrics)
	}
	deep := doc["BenchmarkNameServerPipelined/inflight=64-4"]
	if got := deep.Metrics["names/s"]; got != 22001 {
		t.Errorf("names/s = %v, want 22001", got)
	}
	shallow := doc["BenchmarkNameServerPipelined/inflight=1-4"]
	if got := shallow.Metrics["names/s"]; got != 424.3 {
		t.Errorf("names/s = %v, want 424.3", got)
	}
}

func TestConvertAveragesRepeatedRuns(t *testing.T) {
	in := `BenchmarkX-1   100   10 ns/op   1000 names/s
BenchmarkX-1   300   30 ns/op   3000 names/s
`
	doc := parse(t, in)
	x := doc["BenchmarkX-1"]
	if x.NsPerOp != 20 {
		t.Errorf("ns/op = %v, want average 20", x.NsPerOp)
	}
	if x.Iterations != 400 {
		t.Errorf("iterations = %d, want total 400", x.Iterations)
	}
	if got := x.Metrics["names/s"]; got != 2000 {
		t.Errorf("names/s = %v, want average 2000", got)
	}
}

// TestConvertBenchmemGolden pins the full output for a -benchmem stream:
// B/op and allocs/op are promoted to dedicated fields (averaged across
// repeated runs like everything else), custom metrics keep riding in
// metrics, and lines measured without -benchmem omit the allocation pair
// rather than claiming zero.
func TestConvertBenchmemGolden(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "benchmem.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "benchmem.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := convert(bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("output drifted from testdata/benchmem.golden.json:\n got: %s\nwant: %s", out.Bytes(), golden)
	}
}

// TestConvertBenchmemFields spot-checks the parsed values behind the
// golden file, so a failure names the broken field instead of a diff.
func TestConvertBenchmemFields(t *testing.T) {
	in := `BenchmarkY-8   1000   50 ns/op   128 B/op   4 allocs/op
BenchmarkY-8   1000   70 ns/op   64 B/op   2 allocs/op
BenchmarkZ-8   500   90 ns/op
`
	doc := parse(t, in)
	y := doc["BenchmarkY-8"]
	if y.BytesPerOp == nil || *y.BytesPerOp != 96 {
		t.Errorf("bytes_per_op = %v, want average 96", y.BytesPerOp)
	}
	if y.AllocsPerOp == nil || *y.AllocsPerOp != 3 {
		t.Errorf("allocs_per_op = %v, want average 3", y.AllocsPerOp)
	}
	if len(y.Metrics) != 0 {
		t.Errorf("allocation pair leaked into metrics: %v", y.Metrics)
	}
	z := doc["BenchmarkZ-8"]
	if z.BytesPerOp != nil || z.AllocsPerOp != nil {
		t.Errorf("plain run invented an allocation pair: %+v", z)
	}
}

func fp(v float64) *float64 { return &v }

// TestCompareGate exercises the -compare delta math: within-threshold
// drift passes, ns/op past the threshold trips the gate, and allocations
// appearing on a zero-alloc path regress at any threshold.
func TestCompareGate(t *testing.T) {
	oldDoc := map[string]result{
		"BenchmarkSteady-4":  {NsPerOp: 100, AllocsPerOp: fp(0)},
		"BenchmarkDrift-4":   {NsPerOp: 100},
		"BenchmarkRetired-4": {NsPerOp: 50},
	}

	var out bytes.Buffer
	newDoc := map[string]result{
		"BenchmarkSteady-4": {NsPerOp: 105, AllocsPerOp: fp(0)},
		"BenchmarkDrift-4":  {NsPerOp: 109},
		"BenchmarkFresh-4":  {NsPerOp: 70},
	}
	if compareDocs(oldDoc, newDoc, 10, &out) {
		t.Errorf("within-threshold drift tripped the gate:\n%s", out.String())
	}
	report := out.String()
	for _, want := range []string{"BenchmarkFresh-4: new benchmark", "BenchmarkRetired-4: removed"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	out.Reset()
	newDoc["BenchmarkDrift-4"] = result{NsPerOp: 125}
	if !compareDocs(oldDoc, newDoc, 10, &out) {
		t.Errorf("25%% ns/op regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report does not mark the regression:\n%s", out.String())
	}

	out.Reset()
	newDoc["BenchmarkDrift-4"] = result{NsPerOp: 100}
	newDoc["BenchmarkSteady-4"] = result{NsPerOp: 100, AllocsPerOp: fp(2)}
	if !compareDocs(oldDoc, newDoc, 1000, &out) {
		t.Errorf("allocs on a zero-alloc path passed the gate:\n%s", out.String())
	}

	// Counted per-op metrics gate like allocs/op; rates are reported by
	// convert but never compared — a 1x run's names/s is noise.
	out.Reset()
	oldDoc = map[string]result{"BenchmarkPipe-4": {NsPerOp: 100,
		Metrics: map[string]float64{"client-writes/op": 0.016, "names/s": 9000}}}
	newDoc = map[string]result{"BenchmarkPipe-4": {NsPerOp: 100,
		Metrics: map[string]float64{"client-writes/op": 0.017, "names/s": 300, "server-writes/op": 1}}}
	if compareDocs(oldDoc, newDoc, 50, &out) {
		t.Errorf("a steady count, a noisy rate and a metric without a baseline tripped the gate:\n%s", out.String())
	}
	out.Reset()
	newDoc["BenchmarkPipe-4"].Metrics["client-writes/op"] = 1
	if !compareDocs(oldDoc, newDoc, 50, &out) || !strings.Contains(out.String(), "client-writes/op 0.016 -> 1") {
		t.Errorf("a frame-per-write regression passed the gate:\n%s", out.String())
	}
}

func TestConvertIgnoresNoise(t *testing.T) {
	in := `random prose
Benchmark	notanumber	5 ns/op
PASS
`
	doc := parse(t, in)
	if len(doc) != 0 {
		t.Fatalf("noise parsed as benchmarks: %v", doc)
	}
}

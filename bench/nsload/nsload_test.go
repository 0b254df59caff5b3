package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors ../../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the generator's own tables
// from drifting apart: the file is what the driver reads, the tables are
// what the generator prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the generator", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name || b.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), generator %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", wl.name, len(wl.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the generator", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, generator %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the generator", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, generator %+v", i, got, d)
		}
	}
}

// TestSmoke builds nsd and runs every workload briefly in both modes. It
// fails on a wrong answer, a missing metric or a child left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts processes")
	}
	e, err := newEnv("../..")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(abandon)
	if err := e.smoke(defaultSeed); err != nil {
		t.Fatal(err)
	}
	live.Lock()
	defer live.Unlock()
	if len(live.procs) != 0 || len(live.dirs) != 0 {
		t.Errorf("left behind %d processes and %d directories", len(live.procs), len(live.dirs))
	}
}

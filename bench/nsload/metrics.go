package main

// metricDef names one metric. BENCHMARK.json repeats the end-to-end ones
// with these bounds and lists the per-layer ones; the package's test fails
// when the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the naming service sees, measured with
// tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"names_per_s", "1/s", "higher", 0.25},
	{"resolve_p50_us", "us", "lower", 0.25},
	{"resolve_p90_us", "us", "lower", 0.25},
	{"server_cpu_us_per_name", "us", "lower", 0.25},
	{"nsd_rss_mb", "MB", "lower", 0.25},
	{"fresh_read_frac", "ratio", "higher", 0.15},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the metrics of defs out of all, and the names missing.
func pick(defs []metricDef, all map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := all[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, missing
}

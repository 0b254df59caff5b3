package check

import (
	"fmt"
	"sort"
	"strings"

	"namecoherence/internal/core"
)

// Severity classifies findings.
type Severity int

// Severities.
const (
	// Info findings are legal but noteworthy (cycles, shared subtrees).
	Info Severity = iota + 1
	// Error findings are model violations (dangling bindings).
	Error
)

// String returns the severity tag.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Error:
		return "error"
	default:
		return "unknown"
	}
}

// Finding is one checker result.
type Finding struct {
	// Severity classifies the finding.
	Severity Severity
	// Code is a stable machine-readable tag.
	Code string
	// Detail is the human-readable description.
	Detail string
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s[%s]: %s", f.Severity, f.Code, f.Detail)
}

// Report is the set of findings from one run.
type Report struct {
	// Findings in detection order.
	Findings []Finding
}

// add appends a finding.
func (r *Report) add(sev Severity, code, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Severity: sev,
		Code:     code,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// String renders all findings, one per line.
func (r *Report) String() string {
	if len(r.Findings) == 0 {
		return "clean"
	}
	lines := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// World scans every context object in the world for dangling bindings and
// reports cycles among context objects.
func World(w *core.World) *Report {
	r := &Report{}
	edges := w.Graph()
	for _, e := range edges {
		if !w.Exists(e.To) {
			r.add(Error, "dangling-binding",
				"%v binds %q to unknown entity %v", e.From, e.Label, e.To)
		}
	}
	for _, cyc := range findCycles(w, edges) {
		r.add(Info, "cycle", "cycle through %s", cyc)
	}
	return r
}

// findCycles returns a representative description for each strongly
// connected component of size > 1 (or with a self-loop) among context
// objects.
func findCycles(w *core.World, edges []core.Edge) []string {
	adj := make(map[core.EntityID][]core.EntityID)
	for _, e := range edges {
		if w.IsContextObject(e.To) {
			adj[e.From.ID] = append(adj[e.From.ID], e.To.ID)
		}
	}
	// Tarjan's strongly connected components, iteratively indexed.
	index := make(map[core.EntityID]int)
	low := make(map[core.EntityID]int)
	onStack := make(map[core.EntityID]bool)
	var stack []core.EntityID
	var cycles []string
	next := 0

	var strongconnect func(v core.EntityID)
	strongconnect = func(v core.EntityID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, to := range adj[v] {
			if _, seen := index[to]; !seen {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			var comp []core.EntityID
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == v {
					break
				}
			}
			selfLoop := false
			for _, to := range adj[v] {
				if to == v {
					selfLoop = true
				}
			}
			if len(comp) > 1 || selfLoop {
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				parts := make([]string, len(comp))
				for i, id := range comp {
					parts[i] = fmt.Sprintf("o%d(%s)", id, w.Label(core.Entity{ID: id, Kind: core.KindObject}))
				}
				cycles = append(cycles, strings.Join(parts, " -> "))
			}
		}
	}
	var roots []core.EntityID
	for v := range adj {
		roots = append(roots, v)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, v := range roots {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return cycles
}

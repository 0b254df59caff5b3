package core

import (
	"fmt"
	"io"
)

// Edge is one labelled edge of the naming graph: context object From binds
// Label to entity To.
type Edge struct {
	From  Entity
	Label Name
	To    Entity
}

// Graph returns a snapshot of the naming graph: one edge per binding of
// every context object in the World. Edges are ordered by (From.ID, Label).
func (w *World) Graph() []Edge {
	type node struct {
		e Entity
		c Context
	}
	w.mu.RLock()
	var nodes []node // in table order, which is ID order
	w.eachRow(func(e Entity, r *entityRow) {
		if r.ctx != nil {
			nodes = append(nodes, node{e, r.ctx})
		}
	})
	w.mu.RUnlock()

	var edges []Edge
	for _, nd := range nodes {
		for _, n := range nd.c.Names() {
			to := nd.c.Lookup(n)
			if to.IsUndefined() {
				continue
			}
			edges = append(edges, Edge{From: nd.e, Label: n, To: to})
		}
	}
	return edges
}

// Reachable returns the set of entity IDs reachable from the given entity by
// traversing naming-graph edges (including the start entity itself).
func (w *World) Reachable(from Entity) map[EntityID]bool {
	seen := map[EntityID]bool{from.ID: true}
	stack := []Entity{from}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := w.ContextOf(e)
		if !ok {
			continue
		}
		for _, n := range c.Names() {
			to := c.Lookup(n)
			if to.IsUndefined() || seen[to.ID] {
				continue
			}
			seen[to.ID] = true
			stack = append(stack, to)
		}
	}
	return seen
}

// DumpGraph writes a human-readable rendering of the naming graph, one edge
// per line, using entity labels where available.
func (w *World) DumpGraph(out io.Writer) error {
	for _, e := range w.Graph() {
		fromLabel, toLabel := w.Label(e.From), w.Label(e.To)
		if _, err := fmt.Fprintf(out, "%v(%s) --%s--> %v(%s)\n",
			e.From, fromLabel, e.Label, e.To, toLabel); err != nil {
			return err
		}
	}
	return nil
}

// DumpDot writes the naming graph in Graphviz DOT format: activities as
// ellipses, context objects as folders, plain objects as boxes.
func (w *World) DumpDot(out io.Writer) error {
	if _, err := fmt.Fprintln(out, "digraph naming {"); err != nil {
		return err
	}
	seen := make(map[EntityID]bool)
	node := func(e Entity) error {
		if seen[e.ID] {
			return nil
		}
		seen[e.ID] = true
		shape := "box"
		switch {
		case e.IsActivity():
			shape = "ellipse"
		case w.IsContextObject(e):
			shape = "folder"
		}
		_, err := fmt.Fprintf(out, "  n%d [label=%q shape=%s];\n", e.ID, w.Label(e), shape)
		return err
	}
	for _, edge := range w.Graph() {
		if err := node(edge.From); err != nil {
			return err
		}
		if err := node(edge.To); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "  n%d -> n%d [label=%q];\n",
			edge.From.ID, edge.To.ID, string(edge.Label)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(out, "}")
	return err
}

package treespec

import (
	"fmt"
	"strings"
)

// ShardPlan is the result of splitting one treespec across n shards by
// first-component prefix (the DCE-cell style partition of §5.2: each shard
// administers whole top-level subtrees of the shared graph).
type ShardPlan struct {
	// Specs[i] is the treespec of the subtrees shard i serves.
	Specs []string
	// Prefixes maps a name's first component to its shard.
	Prefixes map[string]int
	// Default is the shard for names whose first component has no entry.
	Default int
}

// Split partitions spec across n shards. Every top-level prefix is assigned
// to exactly one shard; link lines force their two prefixes onto the same
// shard (a cross-directory link must live where its target lives), and the
// remaining prefix groups are dealt round-robin in order of first
// appearance, so the split is deterministic. The default shard is 0.
func Split(spec string, n int) (*ShardPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard count %d: %w", n, ErrSyntax)
	}

	var order []string           // prefixes in first-appearance order
	group := map[string]string{} // union-find parent, keyed by prefix

	var find func(p string) string
	find = func(p string) string {
		if group[p] != p {
			group[p] = find(group[p])
		}
		return group[p]
	}
	// note records p and returns its representative. A prefix is cloned
	// the first time it is seen, so the routing table does not keep the
	// whole spec alive.
	note := func(p string) string {
		if _, ok := group[p]; !ok {
			p = strings.Clone(p)
			group[p] = p
			order = append(order, p)
		}
		return find(p)
	}
	err := eachLine(spec, func(l line) error {
		root := note(firstComponent(l.path))
		if l.directive == "link" {
			// A link welds its target's prefix to its own.
			group[note(firstComponent(l.arg))] = root
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deal prefix groups to shards round-robin, in first-appearance order
	// of each group's representative.
	plan := &ShardPlan{
		Specs:    make([]string, n),
		Prefixes: make(map[string]int, len(order)),
		Default:  0,
	}
	shardOf := make(map[string]int)
	for _, p := range order {
		root := find(p)
		shard, done := shardOf[root]
		if !done {
			shard = len(shardOf) % n
			shardOf[root] = shard
		}
		plan.Prefixes[p] = shard
	}
	builders := make([]strings.Builder, n)
	// A second pass writes each line to its shard; the first one parsed
	// every line, so it cannot fail.
	_ = eachLine(spec, func(l line) error {
		b := &builders[plan.Prefixes[firstComponent(l.path)]]
		b.WriteString(l.text)
		b.WriteByte('\n')
		return nil
	})
	for i := range builders {
		plan.Specs[i] = builders[i].String()
	}
	return plan, nil
}

// firstComponent returns the first component of a path parseLine
// accepted: the prefix a cluster routes it by. It is the path the line
// binds that routes it, not a name embedded as content: those are data,
// resolved through a client that routes across the whole cluster.
func firstComponent(path string) string {
	first, _, _ := strings.Cut(strings.TrimLeft(path, "/"), "/")
	return first
}

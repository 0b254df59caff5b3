package naming

import (
	"namecoherence/internal/check"
	"namecoherence/internal/cluster"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/embedded"
	"namecoherence/internal/exchange"
	"namecoherence/internal/federation"
	"namecoherence/internal/machine"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/netsim"
	"namecoherence/internal/newcastle"
	"namecoherence/internal/perproc"
	"namecoherence/internal/pqi"
	"namecoherence/internal/sharedns"
	"namecoherence/internal/treespec"
)

// NewTree creates a naming tree (directories as context objects) with a
// fresh root directory.
var NewTree = dirtree.New

// Machines and processes (§5.1's Unix model).
type (
	// Process is an activity with the root/cwd two-binding context.
	Process = machine.Process
)

// NewMachine creates a machine with a fresh local tree.
var NewMachine = machine.New

// Remote-execution root policies of the Newcastle Connection (Figure 3).
const (
	RootOfInvoker  = newcastle.RootOfInvoker
	RootOfExecutor = newcastle.RootOfExecutor
)

// NewNewcastle composes a Newcastle Connection from fresh machines.
var NewNewcastle = newcastle.NewSystem

// ViceName is the conventional attachment name of the shared naming graph
// (Andrew's /vice; Figure 4).
const ViceName = sharedns.ViceName

// NewSharedNS creates a shared-naming-graph system (Andrew, DCE).
var NewSharedNS = sharedns.NewSystem

// Federations of autonomous systems (Figure 5).
var (
	// NewFederation returns an empty federation.
	NewFederation = federation.New
	// NewPrefixMapper returns an empty prefix mapper, the human
	// prefix-rewriting closure of §7.
	NewPrefixMapper = federation.NewPrefixMapper
	// ExchangeName simulates sending a textual name across a boundary.
	ExchangeName = federation.ExchangeName
)

// Embedded names under the Algol scope rule (Figure 6, §6 Ex. 2).
type (
	// Assembler assembles structured objects by resolving embedded names.
	Assembler = embedded.Assembler
)

// ScopeChain builds a scope chain from a start entity and a trail.
var ScopeChain = embedded.Chain

// Partially qualified identifiers (§6 Ex. 1).
type (
	// PID is a partially qualified process identifier.
	PID = pqi.PID
	// PQINode is a communicating process holding pid references.
	PQINode = pqi.Node
)

// PID functions.
var (
	// NewPQINode registers a node on a network.
	NewPQINode = pqi.NewNode
	// PIDRelativize returns the minimal pid for a target.
	PIDRelativize = pqi.Relativize
)

// Simulated network substrate.
type (
	// Addr is a hierarchical (network, machine, local) address.
	Addr = netsim.Addr
)

// NewNetwork returns an empty simulated network.
var NewNetwork = netsim.NewNetwork

// Per-process namespaces (§6 II, Plan 9 style).
type (
	// PerProc is a process with a private per-process namespace.
	PerProc = perproc.Proc
)

// Per-process namespace functions.
var (
	// NewPerProc creates a process with a private namespace.
	NewPerProc = perproc.New
	// RemoteExec runs a child remotely in the parent's arranged context
	// (bindings copied at exec time).
	RemoteExec = perproc.RemoteExec
)

// Name exchange between processes with boundary translation (§6 I applied
// to textual names).
type (
	// PrefixTranslator applies federation prefix rules in transit.
	PrefixTranslator = exchange.PrefixTranslator
)

// NewExchanger returns an exchanger over a fresh network (nil translator
// means identity).
var NewExchanger = exchange.NewExchanger

// Sharded naming cluster: one logical graph partitioned across name
// servers by prefix (§5.2, Fig. 4 at deployment scale).
type (
	// RouteInfo maps name prefixes to shards and shards to addresses.
	RouteInfo = nameserver.RouteInfo
)

// Sharded-cluster functions.
var (
	// NewShardedCluster splits a treespec across n shards and serves them.
	NewShardedCluster = cluster.New
	// NewReplicatedCluster additionally serves every shard from r replica
	// servers — replicas of the same subtree, weakly coherent by
	// construction, so clients can fail over when one dies.
	NewReplicatedCluster = cluster.NewReplicated
	// DialShardedCluster bootstraps a client from any one cluster member.
	DialShardedCluster = cluster.Dial
	// NewShardedClient builds a client over a known routing table.
	NewShardedClient = cluster.NewClient
	// WithShardLRU enables the revision-tracked per-shard cache (SIEVE
	// eviction; the name is older than the policy).
	WithShardLRU = cluster.WithLRU
)

// Consistency checking and tree specifications.
var (
	// CheckWorld scans a world's naming graph for defects.
	CheckWorld = check.World
	// ParseTreeSpec builds a tree from the treespec text format.
	ParseTreeSpec = treespec.Parse
)

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

// File trees (directories as context objects).
type (
	// Tree is a naming tree: a root directory plus tree operations.
	Tree = dirtree.Tree
	// FileData is a regular file's payload: content plus embedded names.
	FileData = dirtree.FileData
)

// Tree constructors.
var (
	// NewTree creates a tree with a fresh root directory.
	NewTree = dirtree.New
	// NewTreeWithParentLinks creates a tree whose directories carry "..".
	NewTreeWithParentLinks = dirtree.NewWithParentLinks
)

// Machines and processes (§5.1's Unix model).
type (
	// Machine is a computer with a local naming tree.
	Machine = machine.Machine
	// Process is an activity with the root/cwd two-binding context.
	Process = machine.Process
	// ProcessRegistry maps activities back to processes for probing.
	ProcessRegistry = machine.Registry
)

// Machine constructors.
var (
	// NewMachine creates a machine with a fresh local tree.
	NewMachine = machine.New
	// NewProcessRegistry returns an empty registry.
	NewProcessRegistry = machine.NewRegistry
)

// The Newcastle Connection (Figure 3).
type (
	// Newcastle is a single naming tree composed from machine trees.
	Newcastle = newcastle.System
	// RootPolicy selects the remote-execution root binding.
	RootPolicy = newcastle.RootPolicy
)

// Remote-execution root policies.
const (
	RootOfInvoker  = newcastle.RootOfInvoker
	RootOfExecutor = newcastle.RootOfExecutor
)

// NewNewcastle composes a Newcastle Connection from fresh machines.
var NewNewcastle = newcastle.NewSystem

// The shared naming graph approach (Figure 4).
type (
	// SharedNS is a shared-naming-graph system (Andrew, DCE).
	SharedNS = sharedns.System
	// Space is a name space shared by a set of clients under one name.
	Space = sharedns.Space
	// SharedClient is one client subsystem.
	SharedClient = sharedns.Client
)

// Conventional attachment names.
const (
	ViceName   = sharedns.ViceName
	CellName   = sharedns.CellName
	GlobalName = sharedns.GlobalName
)

// NewSharedNS creates a shared-naming-graph system.
var NewSharedNS = sharedns.NewSystem

// Federations of autonomous systems (Figure 5).
type (
	// Federation is a set of autonomous systems with cross-links.
	Federation = federation.Federation
	// PrefixMapper is the human prefix-rewriting closure of §7.
	PrefixMapper = federation.PrefixMapper
	// ExchangeOutcome reports a cross-boundary name exchange.
	ExchangeOutcome = federation.ExchangeOutcome
)

// Federation constructors and helpers.
var (
	// NewFederation returns an empty federation.
	NewFederation = federation.New
	// NewPrefixMapper returns an empty prefix mapper.
	NewPrefixMapper = federation.NewPrefixMapper
	// ExchangeName simulates sending a textual name across a boundary.
	ExchangeName = federation.ExchangeName
)

// Embedded names under the Algol scope rule (Figure 6, §6 Ex. 2).
type (
	// Assembler assembles structured objects by resolving embedded names.
	Assembler = embedded.Assembler
	// ScopeError reports an embedded name with no enclosing binding.
	ScopeError = embedded.ScopeError
)

// Embedded-name functions.
var (
	// ScopeChain builds a scope chain from a start entity and a trail.
	ScopeChain = embedded.Chain
	// ResolveEmbedded resolves an embedded name per the scope rule.
	ResolveEmbedded = embedded.Resolve
)

// Partially qualified identifiers (§6 Ex. 1).
type (
	// PID is a partially qualified process identifier.
	PID = pqi.PID
	// PQINode is a communicating process holding pid references.
	PQINode = pqi.Node
	// Ref is a pid reference exchanged in messages.
	Ref = pqi.Ref
)

// PID functions.
var (
	// NewPQINode registers a node on a network.
	NewPQINode = pqi.NewNode
	// PIDAbsolute resolves a pid in its holder's context.
	PIDAbsolute = pqi.Absolute
	// PIDRelativize returns the minimal pid for a target.
	PIDRelativize = pqi.Relativize
	// PIDMap implements R(sender) for pids crossing a boundary.
	PIDMap = pqi.Map
)

// Simulated network substrate.
type (
	// Addr is a hierarchical (network, machine, local) address.
	Addr = netsim.Addr
	// Network routes messages between registered endpoints.
	Network = netsim.Network
	// Endpoint is a registered receiver with a mailbox.
	Endpoint = netsim.Endpoint
	// Message is a payload in flight.
	Message = netsim.Message
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

// Name service over the wire.
type (
	// NameServer resolves names for remote clients over net.Conn.
	NameServer = nameserver.Server
	// NameClient is a connection to a NameServer.
	NameClient = nameserver.Client
)

// Name-service constructors.
var (
	// NewNameServer returns a server exporting a context.
	NewNameServer = nameserver.NewServer
	// NewNameClient wraps an established connection.
	NewNameClient = nameserver.NewClient
	// DialNameServer connects to a listening server.
	DialNameServer = nameserver.Dial
	// WithResolveCache enables the client-side resolution cache, which is
	// never invalidated (WithShardLRU is the revision-tracked one).
	WithResolveCache = nameserver.WithCache
)

// Name exchange between processes with boundary translation (§6 I applied
// to textual names).
type (
	// Exchanger wires parties together over a network with a translator.
	Exchanger = exchange.Exchanger
	// Party is a process reachable on the exchanger's network.
	Party = exchange.Party
	// Translator rewrites names at a context boundary (R(sender)).
	Translator = exchange.Translator
	// IdentityTranslator is the no-translation R(receiver) baseline.
	IdentityTranslator = exchange.Identity
	// NewcastleTranslator maps names between Newcastle machines.
	NewcastleTranslator = exchange.NewcastleTranslator
	// PrefixTranslator applies federation prefix rules in transit.
	PrefixTranslator = exchange.PrefixTranslator
)

// NewExchanger returns an exchanger over a fresh network (nil translator
// means identity).
var NewExchanger = exchange.NewExchanger

// Sharded naming cluster: one logical graph partitioned across name
// servers by prefix (§5.2, Fig. 4 at deployment scale).
type (
	// ShardedCluster serves one naming graph from prefix-delegated shards.
	ShardedCluster = cluster.Cluster
	// ShardedClient routes, batches, coalesces, and caches across shards.
	ShardedClient = cluster.Client
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
	// WithShardLRU enables the revision-tracked per-shard LRU cache.
	WithShardLRU = cluster.WithLRU
	// WithShardTimeout bounds every dial and round-trip of a cluster
	// client (the failure-model deadline).
	WithShardTimeout = cluster.WithTimeout
	// WithShardRetries bounds the retry attempts after transport failures.
	WithShardRetries = cluster.WithRetries
	// WithShardBackoff sets the base of the exponential retry backoff.
	WithShardBackoff = cluster.WithBackoff
	// WithShardBreaker configures the per-replica circuit breaker.
	WithShardBreaker = cluster.WithBreaker
	// SplitTreeSpec partitions a treespec into per-shard subtrees.
	SplitTreeSpec = treespec.Split
	// BuildReplicaTrees builds r copies of a treespec whose corresponding
	// entities form replica groups (weak coherence by construction).
	BuildReplicaTrees = treespec.BuildReplicas
)

// ErrShardedClientClosed fails requests racing or following Close.
var ErrShardedClientClosed = cluster.ErrClientClosed

// Tree specifications and consistency checking.
type (
	// CheckReport is the result of a consistency check.
	CheckReport = check.Report
	// CheckFinding is one checker result.
	CheckFinding = check.Finding
)

// Checker and treespec functions.
var (
	// CheckWorld scans a world's naming graph for defects.
	CheckWorld = check.World
	// ParseTreeSpec builds a tree from the treespec text format.
	ParseTreeSpec = treespec.Parse
	// BuildTreeSpec builds a tree from a treespec string.
	BuildTreeSpec = treespec.Build
	// DumpTreeSpec serializes a tree as treespec text.
	DumpTreeSpec = treespec.Dump
)

package main

// TestModuleInvariants is the module's design rules as one test: the
// namingvet suite over ./..., and the shape guards below over the same
// load. A guard is a fact about this module ("one codec", "one durable
// write"), not a rule for any Go code, so it is a query here and not an
// analyzer with fixtures that restate the module. A guard asks what a name
// denotes, not how it is spelled: identifiers resolve through
// types.Info.Uses, so `rename := os.Rename` is a second use of os.Rename.
// Files the loader does not type-check (tests, testdata/, bench/,
// build-ignored files) are parsed alone, and there a pkg.Name selector
// resolves through the file's imports.

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"namecoherence/internal/analysis"
)

const mod = "namecoherence"

func TestModuleInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := repoRoot(t)
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guards {
		g.check(m, reporter{guard: g.name, fset: m.fset, findings: &findings})
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// srcFile is one .go file of the repository.
type srcFile struct {
	rel    string // slash-separated, relative to the module root
	syntax *ast.File
	// pkg is the loaded package the file was type-checked in, or nil for
	// a file parsed alone.
	pkg *analysis.Package
	// imports maps a parsed-alone file's import names to their paths.
	imports map[string]string
}

func (f *srcFile) test() bool { return strings.HasSuffix(f.rel, "_test.go") }

// under reports whether the file lies below dir (slash-separated, relative
// to the module root).
func (f *srcFile) under(dir string) bool { return strings.HasPrefix(f.rel, dir+"/") }

func (f *srcFile) testdata() bool { return strings.Contains("/"+f.rel, "/testdata/") }

// module is the repository as the guards see it.
type module struct {
	root  string
	fset  *token.FileSet
	files []*srcFile                   // every .go file below root, in walk order
	text  []string                     // every .go, .yml and .sh file, slash-separated and relative
	pkgs  map[string]*analysis.Package // by import path
}

// loadModule walks root and takes each .go file from the package Load
// type-checked it in, parsing the rest into the same file set.
func loadModule(root string, pkgs []*analysis.Package) (*module, error) {
	m := &module{root: root, fset: pkgs[0].Fset, pkgs: make(map[string]*analysis.Package)}
	typed := make(map[string]*srcFile)
	for _, p := range pkgs {
		m.pkgs[p.Path] = p
		for _, f := range p.Files {
			typed[p.Fset.File(f.Pos()).Name()] = &srcFile{syntax: f, pkg: p}
		}
	}
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		rel, err := filepath.Rel(root, name)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch path.Ext(rel) {
		case ".go":
			m.text = append(m.text, rel)
		case ".yml", ".sh":
			m.text = append(m.text, rel)
			return nil
		default:
			return nil
		}
		f := typed[name]
		delete(typed, name)
		if f == nil {
			syntax, err := parser.ParseFile(m.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			f = &srcFile{syntax: syntax, imports: make(map[string]string)}
			for _, spec := range syntax.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if spec.Name != nil {
					f.imports[spec.Name.Name] = p
				} else {
					f.imports[path.Base(p)] = p
				}
			}
		}
		f.rel = rel
		m.files = append(m.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for name := range typed {
		// A loaded file the walk did not reach would be missed by every
		// guard; root and the loader disagree about the module's path.
		return nil, &fs.PathError{Op: "walk", Path: name, Err: fs.ErrNotExist}
	}
	return m, nil
}

// inspect calls fn for every node of every file keep accepts.
func (m *module) inspect(keep func(*srcFile) bool, fn func(f *srcFile, n ast.Node)) {
	for _, f := range m.files {
		if keep(f) {
			ast.Inspect(f.syntax, func(n ast.Node) bool {
				if n != nil {
					fn(f, n)
				}
				return true
			})
		}
	}
}

// refs calls fn with the key of each package-level object or method a
// file refers to (see objKey). A type-checked file resolves every
// identifier; a file parsed alone resolves pkg.Name selectors only.
func (m *module) refs(keep func(*srcFile) bool, fn func(pos token.Pos, key string)) {
	m.inspect(keep, func(f *srcFile, n ast.Node) {
		if f.pkg != nil {
			if id, ok := n.(*ast.Ident); ok {
				if key := objKey(f.pkg.Info.Uses[id]); key != "" {
					fn(id.Pos(), key)
				}
			}
		} else if sel, ok := n.(*ast.SelectorExpr); ok {
			if key := f.qualified(sel); key != "" {
				fn(sel.Sel.Pos(), key)
			}
		}
	})
}

// uses returns where the files keep accepts refer to any of keys.
func (m *module) uses(keep func(*srcFile) bool, keys ...string) []token.Pos {
	var sites []token.Pos
	m.refs(keep, func(pos token.Pos, key string) {
		for _, k := range keys {
			if key == k {
				sites = append(sites, pos)
			}
		}
	})
	return sites
}

// imports returns where the files keep accepts import imp.
func (m *module) imports(keep func(*srcFile) bool, imp string) []token.Pos {
	var sites []token.Pos
	for _, f := range m.files {
		for _, spec := range f.syntax.Imports {
			if keep(f) && spec.Path.Value == strconv.Quote(imp) {
				sites = append(sites, spec.Pos())
			}
		}
	}
	return sites
}

// idents returns where the files keep accepts declare or refer to an
// identifier with one of names: the query for a deleted declaration.
func (m *module) idents(keep func(*srcFile) bool, names ...string) []token.Pos {
	var sites []token.Pos
	m.inspect(keep, func(_ *srcFile, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			for _, name := range names {
				if id.Name == name {
					sites = append(sites, id.Pos())
				}
			}
		}
	})
	return sites
}

// qualified returns the key of the object a pkg.Name selector denotes, or
// "" when e is none or does not resolve.
func (f *srcFile) qualified(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if f.pkg != nil {
		return objKey(f.pkg.Info.Uses[sel.Sel])
	}
	if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
		return f.imports[x.Name] + "." + sel.Sel.Name
	}
	return ""
}

// typeOf returns e's type in a type-checked file, or nil.
func (f *srcFile) typeOf(e ast.Expr) types.Type {
	if f.pkg == nil {
		return nil
	}
	return f.pkg.Info.TypeOf(e)
}

// objKey names a function or method as types.Func.FullName does
// ("os.Rename", "(*pkg.T).M") and any other package-level object as
// "path.Name"; it returns "" for local objects, fields and nil.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// reporter files one guard's violations as analysis findings, so a broken
// guard prints exactly like a namingvet line.
type reporter struct {
	guard    string
	fset     *token.FileSet
	findings *[]analysis.Finding
}

func (r reporter) at(pos token.Pos, msg string) {
	r.atPosn(r.fset.Position(pos), msg)
}

func (r reporter) atPosn(posn token.Position, msg string) {
	*r.findings = append(*r.findings, analysis.Finding{Analyzer: r.guard, Posn: posn, Message: msg})
}

// all reports every site.
func (r reporter) all(sites []token.Pos, msg string) {
	for _, pos := range sites {
		r.at(pos, msg)
	}
}

// atMostOne reports every site when there are two or more.
func (r reporter) atMostOne(sites []token.Pos, msg string) {
	if len(sites) > 1 {
		r.all(sites, msg)
	}
}

// Predicates over srcFile for the guards' file sets.
func anyFile(*srcFile) bool   { return true }
func nonTest(f *srcFile) bool { return !f.test() }
func in(dir string) func(*srcFile) bool {
	return func(f *srcFile) bool { return f.under(dir) }
}
func shippedIn(dir string) func(*srcFile) bool {
	return func(f *srcFile) bool { return f.under(dir) && f.pkg != nil }
}

// beyondWire is shipped code outside internal/cluster and
// internal/nameserver.
func beyondWire(f *srcFile) bool {
	return f.pkg != nil && !f.under("internal/cluster") && !f.under("internal/nameserver")
}

// durable is shipped internal/cas and internal/snapstore.
func durable(f *srcFile) bool {
	return f.pkg != nil && (f.under("internal/cas") || f.under("internal/snapstore"))
}

// analysisFiles is internal/analysis and its analyzers, tests included,
// fixtures not.
func analysisFiles(f *srcFile) bool { return f.under("internal/analysis") && !f.testdata() }

// self is this file, the one place the vet-protocol, ignore-directive,
// allocfree and revbump tombstones may be spelled.
const self = "cmd/namingvet/module_test.go"

type guard struct {
	name  string
	check func(m *module, r reporter)
}

var guards = []guard{
	// The binary codec is the wire's only encoding and its own round-trip
	// test is its reference, so no Go file, test, fixture or benchmark
	// included, imports encoding/gob again.
	{"one-codec", func(m *module, r reporter) {
		r.all(m.imports(anyFile, "encoding/gob"),
			"a Go file imports encoding/gob again: the binary codec is the one codec, tests included")
	}},
	// analysis.lockScan is the only code that threads a held-set through a
	// function body, and what every such walker has is a type-switch
	// clause for *ast.IfStmt alone: the one that reads the statement's
	// Init, Cond, Body and Else in order. (A clause listing *ast.IfStmt
	// among other node types reads none.)
	{"one-walker", func(m *module, r reporter) {
		var sites []token.Pos
		m.inspect(analysisFiles, func(f *srcFile, n ast.Node) {
			if cc, ok := n.(*ast.CaseClause); ok && len(cc.List) == 1 {
				if star, ok := cc.List[0].(*ast.StarExpr); ok && f.qualified(star.X) == "go/ast.IfStmt" {
					sites = append(sites, cc.Pos())
				}
			}
		})
		switch {
		case len(sites) == 0:
			r.atPosn(token.Position{Filename: filepath.Join(m.root, "internal/analysis")},
				"expected one statement-order walker in internal/analysis, found none")
		case len(sites) > 1:
			r.all(sites, "expected one statement-order walker in internal/analysis, found another")
		}
	}},
	// internal/cluster is the only shipped code that brings a served graph
	// up (one shard is a valid cluster), so no other package, command or
	// not, constructs a nameserver.Server itself.
	{"one-assembly", func(m *module, r reporter) {
		r.all(m.uses(beyondWire, mod+"/internal/nameserver.NewServer"),
			"shipped code assembles a server outside internal/cluster")
	}},
	// snapstore is the durable form of a graph.
	{"one-serializer", tombstone("internal/persist",
		"internal/persist exists again: snapstore is the one graph serializer")},
	// A server announces a revision advance from nameserver/commitlog.go
	// and nowhere else, so the OnMutation hook stays deleted.
	{"one-commit-log", func(m *module, r reporter) {
		r.all(m.idents(nonTest, "OnMutation"), "a mutation hook is back beside the commit log")
	}},
	// Backups read the primary's commit log, so internal/cluster declares
	// no slice, array, map or channel of applied mutations of its own (a
	// per-connection encode scratch inside nameserver is not a queue).
	{"one-mutation-queue", func(m *module, r reporter) {
		m.inspect(shippedIn("internal/cluster"), func(f *srcFile, n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || f.pkg.Info.Defs[id] == nil || !holdsMutations(f.pkg.Info.Defs[id].Type()) {
				return
			}
			r.at(id.Pos(), "internal/cluster queues mutations itself again: backups read the primary's commit log")
		})
	}},
	// Every binding change a server makes goes through applyMutation,
	// which nameserver's TestEveryAppliedMutationBumpsOnce holds to one
	// revision bump per applied mutation. So in shipped internal/nameserver
	// and internal/cluster, only applyMutation names the Bind or Unbind of
	// a context-shaped value.
	{"one-mutation-path", func(m *module, r reporter) {
		wire := func(f *srcFile) bool { return f.pkg != nil && !beyondWire(f) }
		m.inspect(wire, func(f *srcFile, n ast.Node) {
			if fd, ok := n.(*ast.FuncDecl); !ok || fd.Name.Name == "applyMutation" && recvBase(fd) == "Server" {
				return
			}
			ast.Inspect(n, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := f.pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Name() != "Bind" && fn.Name() != "Unbind" {
					return true
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && analysis.HasMethods(recv.Type(), "Lookup", "Bind", "Unbind", "Names") {
					r.at(sel.Sel.Pos(), "one mutation path: a binding changes outside Server.applyMutation, where no revision bump is held to it")
				}
				return true
			})
		})
	}},
	// cluster.Client's noteRevision/pushed is the only revision-tracked
	// cache; nameserver.Client's second rule stays deleted.
	{"one-coherence-rule", func(m *module, r reporter) {
		r.all(m.idents(anyFile, "admitRevision", "WithCoherentCache"),
			"a second coherence rule is back in nameserver.Client")
	}},
	// analysis.RunAnalyzers honours Analyzer.Scope by whole path segment,
	// and no analyzer carries a substring copy of its own again.
	{"one-scope-matcher", func(m *module, r reporter) {
		r.atMostOne(m.funcDecls(analysisFiles, "inScope"),
			"an analyzer matches its scope by itself again: Analyzer.Scope is the one matcher")
	}},
	// snapstore's Encoder is the only walk that turns the live graph into
	// blobs (Store.Snapshot is that walk with nothing remembered), so
	// Node.Encode has one use outside the tests.
	{"one-encoder", func(m *module, r reporter) {
		r.atMostOne(m.uses(nonTest, "(*"+mod+"/internal/snapstore.Node).Encode"),
			"a second graph encoder is back in internal/snapstore: Store.Snapshot is the Encoder with an empty memo")
	}},
	// internal/lru is SIEVE over a slot array; the container/list LRU it
	// replaced stays deleted.
	{"one-cache-policy", func(m *module, r reporter) {
		r.all(m.imports(shippedIn("internal/lru"), "container/list"),
			"internal/lru imports container/list: an LRU is back beside SIEVE")
	}},
	// cluster.Client makes a cache key and checks the name in one pass
	// (nameserver.AppendWireKey), so no shipped code of internal/cluster
	// renders a value through a String method, called or handed to fmt.
	// net.Addr's String is not a path render.
	{"one-render", func(m *module, r reporter) {
		const msg = "internal/cluster renders a name a second time: the key comes from nameserver.AppendWireKey"
		m.inspect(shippedIn("internal/cluster"), func(f *srcFile, n ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := f.pkg.Info.Uses[n.Sel].(*types.Func)
				if ok && fn.Name() == "String" {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && !isAddr(recv.Type()) {
						r.at(n.Sel.Pos(), msg)
					}
				}
			case *ast.CallExpr:
				fn := analysis.CalleeFunc(f.pkg.Info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
					return
				}
				for _, arg := range n.Args {
					if t := f.typeOf(arg); t != nil && analysis.HasMethods(t, "String") && !isAddr(t) {
						r.at(arg.Pos(), msg)
					}
				}
			}
		})
	}},
	// A table's parameters are constants, so internal/experiments exports
	// Index, Experiment and Table and nothing else.
	{"one-configuration", func(m *module, r reporter) {
		scope := m.pkgs[mod+"/internal/experiments"].Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name); {
			case !obj.Exported(), name == "Index", name == "Experiment", name == "Table":
			default:
				r.at(obj.Pos(), "internal/experiments exports more than Index, Experiment and Table: a table's parameters are constants")
			}
		}
	}},
	// Wire frames and snapstore's node blobs are one encoding, so they
	// decode through internal/varenc's sticky-error Reader, and no package
	// grows a second uvarint decoder or length-prefix helper beside it
	// (readFrame's stream-level binary.ReadUvarint is the framing layer,
	// not a field decoder).
	{"one-reader", func(m *module, r reporter) {
		outside := func(f *srcFile) bool { return !f.test() && !f.under("internal/varenc") }
		const msg = "one reader: wire frames and node blobs decode through internal/varenc"
		r.all(m.uses(outside, "encoding/binary.Uvarint"), msg)
		r.all(m.funcDecls(outside, "appendString"), msg)
	}},
	// A component's counters are one Metrics() snapshot, so a dashboard or
	// a table reads them in one call and one shape, and no per-counter
	// getter grows back beside it. The exemptions are the five
	// cluster.Client views bench/nsload still reads and cas.Store.Stats,
	// which is already a struct snapshot.
	{"one-read-path", func(m *module, r reporter) {
		getters := map[string]bool{"Served": true, "Resolved": true, "Stats": true, "Coalesced": true,
			"Purges": true, "EntriesPurged": true, "Failovers": true, "Invalidations": true, "ReplicationPending": true}
		exempt := map[string]bool{"(*" + mod + "/internal/cas.Store).Stats": true}
		for _, name := range []string{"Stats", "Coalesced", "Purges", "Failovers", "Invalidations"} {
			exempt["(*"+mod+"/internal/cluster.Client)."+name] = true
		}
		m.inspect(nonTest, func(f *srcFile, n ast.Node) {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !getters[fd.Name.Name] {
				return
			}
			if f.pkg != nil && exempt[objKey(f.pkg.Info.Defs[fd.Name])] {
				return
			}
			r.at(fd.Name.Pos(), "one read path: a component's counters are read through Metrics()")
		})
	}},
	// cluster.Client is the one client stack: nothing shipped outside
	// internal/cluster and internal/nameserver dials the wire client (the
	// fixtures and bench/ are not shipped).
	{"one-client-stack", func(m *module, r reporter) {
		ns := mod + "/internal/nameserver."
		r.all(m.uses(beyondWire, ns+"Dial", ns+"DialTimeout", ns+"NewClient", ns+"WithCache"),
			"one client stack: shipped code outside internal/cluster dials the wire client; resolve through cluster.Client")
	}},
	// Nor does the naming facade alias the wire client.
	{"facade-client", func(m *module, r reporter) {
		r.all(m.uses(shippedIn("naming"), mod+"/internal/nameserver.Client"),
			"one client stack: the naming facade aliases the wire client again")
	}},
	// Package naming is the repo's own programs' import, so every name it
	// declares is used by an example, a command or the root benchmarks.
	{"one-facade", func(m *module, r reporter) {
		used := make(map[string]bool)
		m.refs(func(f *srcFile) bool {
			return f.under("examples") || f.under("cmd") || f.rel == "bench_test.go"
		}, func(_ token.Pos, key string) { used[key] = true })
		scope := m.pkgs[mod+"/naming"].Types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() && !used[mod+"/naming."+name] {
				r.at(obj.Pos(), "one facade: naming declares "+name+", which no example, command or root benchmark uses")
			}
		}
	}},
	// cluster.Client retries in roundTrip alone and judges a call's outcome
	// in replicaSet.settle alone, so no second function of internal/cluster
	// calls settled or backoffDelay.
	{"one-failure-model", func(m *module, r reporter) {
		g := analysis.BuildCallGraph(m.pkgs[mod+"/internal/cluster"])
		for _, callee := range []string{mod + "/internal/cluster.settled", "(*" + mod + "/internal/cluster.Client).backoffDelay"} {
			var sites []token.Pos
			callers := make(map[*types.Func]bool)
			for _, fn := range g.Order {
				for _, cs := range g.Calls[fn] {
					if cs.Callee.FullName() == callee {
						callers[fn] = true
						sites = append(sites, cs.Call.Pos())
					}
				}
			}
			if len(callers) > 1 {
				r.all(sites, "one failure model: "+callee+" is called from more than one function of internal/cluster; retry through roundTrip, settle through replicaSet.settle")
			}
		}
	}},
	// Every analyzer keeps a Test…Recall over its testdata/src/recall.
	{"one-analysis-corpus", func(m *module, r reporter) {
		for _, p := range m.pkgs {
			v, ok := p.Types.Scope().Lookup("Analyzer").(*types.Var)
			if !ok || !strings.HasPrefix(p.Path, mod+"/internal/analysis/") {
				continue
			}
			dir := strings.TrimPrefix(p.Path, mod+"/")
			recall := false
			m.inspect(func(f *srcFile) bool { return f.test() && path.Dir(f.rel) == dir }, func(_ *srcFile, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Test") && strings.HasSuffix(fd.Name.Name, "Recall") {
					recall = true
				}
			})
			if !recall {
				r.at(v.Pos(), "one recall corpus: an analyzer without a Test…Recall over its testdata/src/recall")
			}
		}
	}},
	// lockorder reports from the edges the facts layer builds once
	// (LockEdges, Reacquires), never from the lock events again.
	{"one-edge-builder", func(m *module, r reporter) {
		r.all(m.idents(func(f *srcFile) bool { return f.under("internal/analysis/lockorder") && !f.testdata() },
			"LockAcquires", "LockCalls"),
			"one edge builder: lockorder reports from the facts layer's LockEdges and Reacquires, not from the lock events")
	}},
	// A pointer is unwrapped to its named type in analysis.NamedOf alone:
	// one type assertion to *types.Pointer whose value is kept.
	{"one-named-type-helper", func(m *module, r reporter) {
		var sites []token.Pos
		m.inspect(analysisFiles, func(f *srcFile, n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr)
			if !ok {
				return
			}
			if star, ok := ta.Type.(*ast.StarExpr); !ok || f.qualified(star.X) != "go/types.Pointer" {
				return
			}
			if lhs, _ := as.Lhs[0].(*ast.Ident); lhs == nil || lhs.Name != "_" {
				sites = append(sites, ta.Pos())
			}
		})
		r.atMostOne(sites, "one named-type helper: a pointer is unwrapped to its named type outside analysis.NamedOf")
	}},
	// Ablation A5 charges the contexts a resolution consulted from its
	// LookupTrail, so internal/trace's counting Context wrapper stays
	// deleted.
	{"one-load-count", tombstone("internal/trace",
		"internal/trace exists again: A5 counts load from the resolution trail")},
	// treespec's Split and Build read a spec through one line parser and
	// one scan loop (eachLine): one bufio.Scanner, or one strings or bytes
	// function given a newline, in all.
	{"one-spec-grammar", func(m *module, r reporter) {
		sites := m.uses(shippedIn("internal/treespec"), "bufio.NewScanner")
		m.inspect(shippedIn("internal/treespec"), func(f *srcFile, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := analysis.CalleeFunc(f.pkg.Info, call)
			if fn == nil || analysis.RecvNamed(fn) != nil || fn.Pkg().Path() != "strings" && fn.Pkg().Path() != "bytes" {
				return
			}
			for _, arg := range call.Args {
				if newline(f.pkg.Info.Types[arg]) {
					sites = append(sites, call.Pos())
				}
			}
		})
		r.atMostOne(sites, "one spec grammar: internal/treespec scans spec lines in a second loop; read them through eachLine")
	}},
	// The cluster that owns a shard's write lock and commit log also
	// decides when its state is committed (WithSnapStore's loop, Close's
	// final flush), so snapstore grows no Keeper again...
	{"one-snapshot-cadence", func(m *module, r reporter) {
		const msg = "one snapshot cadence: a keeper is back in internal/snapstore; the cluster flushes its shards (WithSnapStore, Close)"
		r.all(m.idents(in("internal/snapstore"), "NewKeeper"), msg)
		m.inspect(in("internal/snapstore"), func(_ *srcFile, n ast.Node) {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Keeper" {
				r.at(ts.Name.Pos(), msg)
			}
		})
	}},
	// ...and Cluster no Track to wire one.
	{"cluster-track", func(m *module, r reporter) {
		m.inspect(anyFile, func(_ *srcFile, n ast.Node) {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Track" && fd.Recv != nil && recvBase(fd) == "Cluster" {
				r.at(fd.Name.Pos(), "one snapshot cadence: Cluster.Track is back; the cluster flushes its shards itself")
			}
		})
	}},
	// Blobs and MANIFEST.json are published by one crash protocol (temp,
	// write, fsync, close, rename, dir fsync), cas.Publish. Its tmp- temps
	// are what snapstore.Open sweeps and it is what durable-publish holds
	// to fsync-before-success; a second copy was one neither saw (the
	// manifest's temps outlived a crash). So shipped internal/cas and
	// internal/snapstore use os.Rename once and os.CreateTemp once.
	{"one-durable-write", func(m *module, r reporter) {
		for _, key := range []string{"os.Rename", "os.CreateTemp"} {
			switch sites := m.uses(durable, key); len(sites) {
			case 0:
				r.atPosn(token.Position{Filename: filepath.Join(m.root, "internal/cas")},
					"one durable write: internal/cas and internal/snapstore never use "+key+"; publish through cas.Publish")
			case 1:
			default:
				r.all(sites, "one durable write: internal/cas and internal/snapstore use "+key+" more than once; publish through cas.Publish")
			}
		}
	}},
	// A directory is fsynced by cas.Publish, so snapstore's dir-fsync
	// helper stays deleted.
	{"one-dir-fsync", func(m *module, r reporter) {
		r.all(m.idents(anyFile, "syncDirFsync"), "one durable write: syncDirFsync is back; a directory is fsynced by cas.Publish")
	}},
	// snapstore commits a manifest naming blobs the moment Put returns
	// nil, so a write that reports success is on disk: the one file write
	// of shipped internal/cas and internal/snapstore is cas.Publish's, a
	// Sync on that file follows it before the file is closed, and syncDir
	// follows the rename.
	{"durable-publish", func(m *module, r reporter) {
		const msg = "durable publish: "
		cas := m.pkgs[mod+"/internal/cas"]
		publish, _ := cas.Types.Scope().Lookup("Publish").(*types.Func)
		g := analysis.BuildCallGraph(cas)
		pub := g.Decls[publish]
		if pub == nil {
			r.atPosn(token.Position{Filename: filepath.Join(m.root, "internal/cas")}, msg+"cas.Publish is gone")
			return
		}
		writes := m.uses(durable, "(*os.File).Write", "(*os.File).WriteString", "(*os.File).WriteAt", "os.WriteFile")
		for _, w := range writes {
			if len(writes) > 1 || w < pub.Pos() || w >= pub.End() {
				r.at(w, msg+"a file is written outside cas.Publish, or twice; publish through it")
			}
		}
		// Publish's calls in source order: the write, then a Sync and a
		// Close on the file written; os.Rename, then syncDir.
		var write, synced, closed, renamed, dirSynced bool
		var file types.Object
		for _, cs := range g.Calls[publish] {
			var recv types.Object
			if sel, ok := cs.Call.Fun.(*ast.SelectorExpr); ok {
				x, _ := sel.X.(*ast.Ident)
				recv = cas.Info.Uses[x]
			}
			switch key, open := cs.Callee.FullName(), write && !closed && recv == file; {
			case key == "(*os.File).Write" && !write:
				write, file = true, recv
			case key == "(*os.File).Sync" && open:
				synced = true
			case key == "(*os.File).Close" && open:
				closed = true
			case key == "os.Rename":
				renamed = true
			case key == mod+"/internal/cas.syncDir" && renamed:
				dirSynced = true
			}
		}
		if !synced || !closed {
			r.at(pub.Name.Pos(), msg+"cas.Publish must Sync the file it wrote before it closes it")
		}
		if !dirSynced {
			r.at(pub.Name.Pos(), msg+"cas.Publish must fsync the directory (syncDir) after its rename")
		}
	}},
	// Every request field is served: read in shipped internal/nameserver
	// code outside the request's own codec (appendRequest, parseRequest),
	// or the wire carries a request kind the server silently ignores. A
	// bare store into a field is not a read.
	{"request-fields-served", func(m *module, r reporter) {
		st := m.pkgs[mod+"/internal/nameserver"].Types.Scope().Lookup("request").Type().Underlying().(*types.Struct)
		read := make(map[types.Object]bool)
		for _, f := range m.files {
			if !shippedIn("internal/nameserver")(f) {
				continue
			}
			markRead := func(e ast.Node) {
				ast.Inspect(e, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && f.pkg.Info.Selections[sel] != nil {
						read[f.pkg.Info.Selections[sel].Obj()] = true
					}
					return true
				})
			}
			ast.Inspect(f.syntax, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // the codec reads every field and serves none
					return n.Recv != nil || n.Name.Name != "appendRequest" && n.Name.Name != "parseRequest"
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							markRead(sel.X) // a bare store reads only what it selects from
						} else {
							markRead(lhs) // req.Paths[k] = v reads Paths to index it
						}
					}
					for _, rhs := range n.Rhs {
						markRead(rhs)
					}
					return false
				case *ast.SelectorExpr:
					markRead(n)
					return false
				}
				return true
			})
		}
		for i := 0; i < st.NumFields(); i++ {
			if field := st.Field(i); !read[field] {
				r.at(field.Pos(), "request fields served: request."+field.Name()+" is read by no handler, only by the request's codec")
			}
		}
	}},
	// namingvet runs every package through analysis.Run's in-memory facts
	// loop, so the go vet unit protocol and its .vetx facts encoding stay
	// deleted: in Go, in CI's YAML and in the scripts.
	{"one-analysis-driver", func(m *module, r reporter) {
		m.spellings(r, func(string) bool { return true },
			"one analysis driver: the go vet unit protocol or its facts encoding is back; namingvet runs through analysis.Run",
			"PackageVetx", "VetxOutput", "EncodeFacts", "DecodeFacts", "factsMagic", "-vettool")
	}},
	// An analyzer exempts a shape it can name (the clock seam, an owner's
	// forwarding Read), never a site a comment points at, so the per-site
	// ignore directives stay deleted (as comments, or as strings a
	// directive matcher reads), and so does conndeadline's bare-loop read
	// exemption, which no module line needs since both wire ends read
	// through a forwarding Read.
	{"exemption-by-rule", func(m *module, r reporter) {
		const msg = "exemption by rule: an ignore directive or the bare-loop read exemption is back; exempt a shape in the analyzer that needs it"
		directive := func(text string) bool {
			return strings.Contains(text, "namingvet:ignore") || strings.Contains(text, "namingvet:file-ignore")
		}
		notSelf := func(f *srcFile) bool { return f.rel != self }
		r.all(m.idents(notSelf, "inBareLoop"), msg)
		m.inspect(notSelf, func(_ *srcFile, n ast.Node) {
			if lit, ok := n.(*ast.BasicLit); ok && directive(lit.Value) {
				r.at(lit.Pos(), msg)
			}
		})
		for _, f := range m.files {
			for _, cg := range f.syntax.Comments {
				for _, c := range cg.List {
					if notSelf(f) && directive(c.Text) {
						r.at(c.Pos(), msg)
					}
				}
			}
		}
	}},
	// The steady path's zero-allocation rule is held by measurement alone:
	// the testing.AllocsPerRun floors read the real allocator, where
	// allocfree's lexical escape model under-reported (it saw through no
	// interface call, generic or function value) and asked for exemption
	// comments at the sites. So its directives, its package and its facts
	// file stay deleted.
	{"allocation-by-measurement", func(m *module, r reporter) {
		const msg = "allocation by measurement: allocfree is back; hold a steady path with an AllocsPerRun floor"
		tombstone("internal/analysis/allocfree", msg)(m, r)
		tombstone("internal/analysis/alloc.go", msg)(m, r)
		m.spellings(r, func(rel string) bool { return path.Ext(rel) == ".go" }, msg, "namingvet:allocfree")
	}},
	// The module's own contracts are held beside their code (nameserver's
	// TestEveryAppliedMutationBumpsOnce, cas's TestBackendContract and the
	// guards above), so mutbump, casimmut and registrycheck stay deleted,
	// with the revbump directive and the summary facts it fed.
	{"contracts-where-they-live", func(m *module, r reporter) {
		const msg = "contracts where they live: a module contract is back in namingvet; hold it by a test or guard beside its code"
		for _, dir := range []string{"mutbump", "casimmut", "registrycheck"} {
			tombstone("internal/analysis/"+dir, msg)(m, r)
		}
		m.spellings(r, func(rel string) bool { return path.Ext(rel) == ".go" }, msg,
			"namingvet:revbump", "RevBumpDirective", "ReachesRevBump", "hasDirective")
	}},
}

// tombstone is a guard that a deleted package's directory, or a deleted
// file, stays absent.
func tombstone(rel, msg string) func(*module, reporter) {
	return func(m *module, r reporter) {
		if _, err := os.Stat(filepath.Join(m.root, rel)); err == nil {
			r.atPosn(token.Position{Filename: filepath.Join(m.root, rel)}, msg)
		}
	}
}

// spellings reports every line of a text file keep accepts, this file
// excepted, that spells one of words.
func (m *module) spellings(r reporter, keep func(rel string) bool, msg string, words ...string) {
	for _, rel := range m.text {
		if rel == self || !keep(rel) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.root, rel))
		if err != nil {
			r.atPosn(token.Position{Filename: rel}, err.Error())
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, w := range words {
				if col := strings.Index(line, w); col >= 0 {
					r.atPosn(token.Position{Filename: filepath.Join(m.root, rel), Line: i + 1, Column: col + 1}, msg)
				}
			}
		}
	}
}

// funcDecls returns where the files keep accepts declare a function or
// method called name.
func (m *module) funcDecls(keep func(*srcFile) bool, name string) []token.Pos {
	var sites []token.Pos
	m.inspect(keep, func(_ *srcFile, n ast.Node) {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == name {
			sites = append(sites, fd.Name.Pos())
		}
	})
	return sites
}

// newline reports whether tv is the constant "\n", or '\n' as a byte or
// rune.
func newline(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	if tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value) == "\n"
	}
	b, _ := tv.Type.Underlying().(*types.Basic)
	return b != nil && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.UntypedRune) &&
		tv.Value.ExactString() == "10"
}

// recvBase returns the name of a method's receiver type, pointer or not.
func recvBase(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isAddr reports whether t is a net.Addr: its String names an endpoint,
// not a path.
func isAddr(t types.Type) bool { return analysis.HasMethods(t, "Network", "String") }

// holdsMutations reports whether t is, or is a named type over, a slice,
// array, map or channel of nameserver.AppliedMutation or pointers to it.
func holdsMutations(t types.Type) bool {
	if _, ptr := t.Underlying().(*types.Pointer); ptr {
		return false
	}
	c, ok := t.Underlying().(interface{ Elem() types.Type })
	return ok && analysis.IsNamedType(c.Elem(), mod+"/internal/nameserver", "AppliedMutation")
}

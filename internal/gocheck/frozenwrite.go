package gocheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FrozenWrite enforces the frozen-epoch discipline of the parallel
// chase: between Database.Freeze and the next serial mutation, match
// workers probe storage concurrently, so nothing reachable from the
// snapshot match path may mutate a Relation, a Database, the Interner or
// the null factory.
//
// Roots of the frozen region are (a) every method of the eval Matcher —
// the dual-mode matcher whose whole method set runs under Snapshot
// workers — (b) any function that constructs a Matcher with
// Snapshot: true or calls the read-only SnapshotLookup probes directly,
// and (c) the storage prepass's runShard method — the per-shard dedup
// goroutines of storage.RunPrepass (rooted for as long as storage/shard.go
// stays), which probe relations concurrently and must stay read-only for
// the same reason workers must.
// The analyzer walks the static call graph from the roots and reports
// every call edge into a mutating storage method (the sink set below).
//
// Runtime-guarded dispatch sites (the !mt.Snapshot branches) are the
// expected suppressions: annotate the call line or the enclosing
// function's doc comment with //vadalint:frozenwrite <reason> stating
// why the mutating branch cannot execute on the worker path.
var FrozenWrite = &Analyzer{
	Name:    "frozenwrite",
	Doc:     "flags mutating storage calls reachable from the snapshot match path",
	Program: true,
	Run:     runFrozenWrite,
}

// frozenSinks lists the mutating methods per receiver type name. Type
// names are matched together with their declaring package's path suffix
// (storage, term, admit), so testdata fixtures participate.
var frozenSinks = map[string]map[string]string{
	"Relation": {
		"Insert": "storage", "Replace": "storage", "retract": "storage",
		"restride": "storage", "Freeze": "storage", "EnsureIndex": "storage",
		"EnsureIndexSized": "storage", "ensureIndexSized": "storage",
		"extendIndex": "storage", "liveSnapshot": "storage",
		"SetNoIndex": "storage", "DropIndexes": "storage",
		"LookupIDs": "storage", "Lookup": "storage",
		"LookupCountIDs": "storage", "PromoteIndex": "storage",
		"observeRow": "storage", "usage": "storage", "internRow": "storage",
		"InsertPrepared": "storage", "insertRow": "storage",
		"appendRow": "storage", "InsertEDB": "storage",
		"resolve": "storage", "SetShards": "storage",
	},
	// The relation's hash structures (storage/table.go): seek, find and
	// rows are the pure probes; everything else moves slots or buckets.
	"flatTable": {
		"insert": "storage", "place": "storage", "remove": "storage",
		"grow": "storage", "reserve": "storage", "rehash": "storage",
	},
	"dynIndex": {
		"bucketFor": "storage", "room": "storage", "push": "storage",
		"insertSorted": "storage", "remove": "storage",
	},
	"Database": {
		"Insert": "storage", "InsertEDB": "storage", "Rel": "storage",
		"Freeze": "storage", "DisableIndexes": "storage",
		"addActive": "storage",
	},
	"Core": {
		"LoadRow": "admit",
	},
	// The symbol table (storage/intern.go): IDOf, ValueOf and find are the
	// pure reads; Intern alone fills a page and inserts into its flatTable.
	"Interner": {
		"Intern": "storage",
	},
	"NullFactory": {
		"Skolem": "term", "Fresh": "term", "Import": "term",
	},
}

// funcNode is one function in the static call graph. The graph is keyed
// by types.Func.FullName() rather than object identity: each target
// package typechecks against export data, so the *types.Func for a
// storage method seen from eval is a different object than the one from
// storage's own source — but their full names coincide.
type funcNode struct {
	decl  *ast.FuncDecl
	pkg   *Package
	calls []callEdge
}

// callEdge is one static call site: the callee's full name, the sink
// label when the callee is a mutating storage method ("" otherwise), and
// the call position.
type callEdge struct {
	callee string
	sink   string
	pos    token.Pos
}

func runFrozenWrite(pass *Pass) error {
	nodes := make(map[string]*funcNode)
	var roots []string

	// Pass 1: index declarations, collect call edges, classify sinks at
	// the edge (by callee name), and mark roots.
	for _, pkg := range pass.Prog {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &funcNode{decl: fd, pkg: pkg}
				nodes[fn.FullName()] = node
				isRoot := isMatcherMethod(fn) || isShardGoroutine(fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if callee := calleeFunc(pkg.Info, n); callee != nil {
							label, _ := sinkLabel(callee)
							node.calls = append(node.calls, callEdge{
								callee: callee.FullName(), sink: label, pos: n.Pos(),
							})
							if callee.Name() == "SnapshotLookupIDs" || callee.Name() == "SnapshotLookupCountIDs" {
								isRoot = true
							}
						}
					case *ast.CompositeLit:
						if snapshotTrueLiteral(pkg.Info, n) {
							isRoot = true
						}
					case *ast.AssignStmt:
						if assignsSnapshotTrue(pkg.Info, n) {
							isRoot = true
						}
					}
					return true
				})
				if isRoot {
					roots = append(roots, fn.FullName())
				}
			}
		}
	}

	// Pass 2: BFS over static call edges from the roots; sink edges
	// terminate paths (their internals are the mutation, not a path
	// through it).
	parent := make(map[string]string)
	reached := make(map[string]bool)
	sort.Strings(roots)
	queue := append([]string(nil), roots...)
	for _, r := range queue {
		reached[r] = true
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		node := nodes[name]
		if node == nil {
			continue
		}
		for _, e := range node.calls {
			if e.sink != "" || reached[e.callee] {
				continue
			}
			if nodes[e.callee] == nil {
				continue // outside the loaded program (stdlib, pure helpers)
			}
			reached[e.callee] = true
			parent[e.callee] = name
			queue = append(queue, e.callee)
		}
	}

	// Pass 3: report every edge from a reached function into a sink.
	var names []string
	for name := range reached {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node := nodes[name]
		if node == nil {
			continue
		}
		for _, e := range node.calls {
			if e.sink == "" {
				continue
			}
			pass.ReportfIn(node.pkg, node.decl.Doc, e.pos,
				"mutating %s call is reachable from the frozen-epoch match path (%s): workers probe concurrently between Freeze and the next serial mutation; guard it and annotate //vadalint:frozenwrite <reason>",
				e.sink, chainString(parent, name))
		}
	}
	return nil
}

// sinkLabel classifies fn as a mutating storage method, returning its
// "Type.Method" label.
func sinkLabel(fn *types.Func) (string, bool) {
	recv := recvTypeName(fn)
	if recv == "" {
		return "", false
	}
	methods, ok := frozenSinks[recv]
	if !ok {
		return "", false
	}
	pkgSuffix, ok := methods[fn.Name()]
	if !ok {
		return "", false
	}
	if fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if !strings.HasSuffix(path, "/"+pkgSuffix) && path != pkgSuffix &&
		!strings.Contains(path, "/testdata/") {
		return "", false
	}
	return recv + "." + fn.Name(), true
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if n, isNamed := t.(*types.Named); isNamed {
		return n.Obj().Name()
	}
	return ""
}

// isMatcherMethod reports whether fn is a method of the eval Matcher
// (or a testdata fixture's Matcher).
func isMatcherMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedIn(sig.Recv().Type(), "Matcher", "eval")
}

// isShardGoroutine reports whether fn is the storage prepass's runShard
// method (or a fixture's) — the body of a shard-local dedup goroutine of
// partitioned admission, which may probe but never mutate.
func isShardGoroutine(fn *types.Func) bool {
	if fn.Name() != "runShard" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedIn(sig.Recv().Type(), "prepass", "storage")
}

// snapshotTrueLiteral matches Matcher{..., Snapshot: true, ...}.
func snapshotTrueLiteral(info *types.Info, cl *ast.CompositeLit) bool {
	if !isNamedIn(info.TypeOf(cl), "Matcher", "eval") {
		return false
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Snapshot" {
			continue
		}
		if v, ok := kv.Value.(*ast.Ident); ok && v.Name == "true" {
			return true
		}
	}
	return false
}

// assignsSnapshotTrue matches m.Snapshot = true.
func assignsSnapshotTrue(info *types.Info, as *ast.AssignStmt) bool {
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Snapshot" {
			continue
		}
		if !isNamedIn(info.TypeOf(sel.X), "Matcher", "eval") {
			continue
		}
		if i < len(as.Rhs) {
			if v, ok := as.Rhs[i].(*ast.Ident); ok && v.Name == "true" {
				return true
			}
		}
	}
	return false
}

// chainString renders the BFS path from a root to fn, e.g.
// "via (*...eval.Matcher).lookupRows -> helper".
func chainString(parent map[string]string, name string) string {
	var hops []string
	for n := name; n != ""; n = parent[n] {
		hops = append([]string{shortFuncName(n)}, hops...)
		if len(hops) > 6 {
			hops = append([]string{"..."}, hops[1:]...)
			break
		}
	}
	return "via " + strings.Join(hops, " -> ")
}

// shortFuncName strips package paths from a FullName for readable
// chains: "(*repro/internal/eval.Matcher).lookupRows" becomes
// "(*Matcher).lookupRows".
func shortFuncName(full string) string {
	out := full
	if i := strings.LastIndex(out, "/"); i >= 0 {
		// Trim the import path inside "(*path/to/pkg.Type).Method" or
		// "path/to/pkg.Func".
		head := out[:i]
		tail := out[i+1:]
		for _, lead := range []string{"(*", "("} {
			if strings.HasPrefix(head, lead) {
				return lead + tail
			}
		}
		return tail
	}
	return out
}

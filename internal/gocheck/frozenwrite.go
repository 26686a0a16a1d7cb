package gocheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FrozenWrite keeps the storage pre-pass read-only: the per-shard dedup
// goroutines of storage.RunPrepass (its runShard method, the one root)
// probe relations concurrently, so nothing reachable from runShard may
// mutate a Relation, a Database, the Interner or the null factory. The
// root stays for as long as storage/shard.go does.
//
// The analyzer walks the static call graph from the root and reports
// every call edge into a mutating storage method (the sink set below). A
// call that is runtime-guarded off the concurrent path is suppressed by
// annotating the call line or the enclosing function's doc comment with
// //vadalint:frozenwrite <reason>.
var FrozenWrite = &Analyzer{
	Name:    "frozenwrite",
	Doc:     "flags mutating storage calls reachable from the concurrent storage pre-pass",
	Program: true,
	Run:     runFrozenWrite,
}

// frozenSinks lists the mutating methods per receiver type name. Type
// names are matched together with their declaring package's path suffix
// (storage, term, admit), so testdata fixtures participate.
var frozenSinks = map[string]map[string]string{
	"Relation": {
		"Insert": "storage", "Replace": "storage", "retract": "storage",
		"Freeze": "storage", "EnsureIndex": "storage",
		"EnsureIndexSized": "storage", "ensureIndexSized": "storage",
		"extendIndex": "storage", "liveSnapshot": "storage",
		"LookupIDs": "storage", "Lookup": "storage",
		"LookupCountIDs": "storage", "internRow": "storage",
		"stats": "storage", "countDistinct": "storage",
		"InsertPrepared": "storage", "insertRow": "storage",
		"appendRow": "storage", "InsertEDB": "storage", "InsertEDBRow": "storage",
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
		"Freeze": "storage", "addActive": "storage", "RelStats": "storage",
		"ResolveSkolem": "storage", "Skolem": "storage",
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
		"Fresh": "term", "Import": "term",
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
	// the edge (by callee name), and mark the roots.
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
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := calleeFunc(pkg.Info, call); callee != nil {
							label, _ := sinkLabel(callee)
							node.calls = append(node.calls, callEdge{
								callee: callee.FullName(), sink: label, pos: call.Pos(),
							})
						}
					}
					return true
				})
				if isShardGoroutine(fn) {
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
				"mutating %s call is reachable from the storage pre-pass (%s): its shard goroutines probe relations concurrently; guard it and annotate //vadalint:frozenwrite <reason>",
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

// chainString renders the BFS path from a root to fn, e.g.
// "via (*prepass).runShard -> helper".
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
// chains: "(*repro/internal/storage.prepass).runShard" becomes
// "(*prepass).runShard".
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

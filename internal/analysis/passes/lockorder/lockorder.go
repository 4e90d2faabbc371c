// Package lockorder certifies the mutex acquisition order of the runtime
// acyclic. It observes Lock/Unlock nesting in every function body: acquiring
// lock B while holding lock A contributes the edge A → B to the acquisition
// graph. Locks are identified structurally — pkg.Type.field for a struct
// field mutex, pkg.var for a package-level one; function-local mutexes cannot
// deadlock across goroutines by nesting alone and are skipped.
//
// The graph is interprocedural twice over: an AcquiresFact summarizing the
// locks each function (transitively) acquires turns `a.mu.Lock(); helper()`
// into an edge when helper locks elsewhere, and a LockGraphFact carries each
// package's merged edge set up the import graph, so the run over
// internal/core sees fabric/mpi/gasnet edges and certifies the whole
// runtime's order. The guardedby annotations feed in through the repo's
// *Locked naming convention: a method with the Locked suffix runs with its
// receiver's annotated guard held, so locks it acquires nest under that
// guard.
//
// A cycle — any edge chain returning to its origin — is reported on every
// own-package edge participating in it. The acyclic partial order itself is
// pinned as a golden artifact by the pass's repo test (LOCKORDER.golden):
// a new runtime lock must extend the order, not break it.
//
// What it cannot prove: orders enforced by runtime state (try-locks,
// channel handoffs) and locks reached through function values. Condition-
// free nesting is the contract this pass certifies.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"cafmpi/internal/analysis"
)

// Edge is one observed acquisition order: To was locked while From was held.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// LockGraphFact is a package's merged acquisition graph (own edges plus every
// dependency's), exported as a package fact.
type LockGraphFact struct {
	Edges []Edge `json:"edges"`
}

func (*LockGraphFact) AFact() {}

// AcquiresFact lists the lock IDs a function acquires on some path,
// directly or transitively.
type AcquiresFact struct {
	Locks []string `json:"locks"`
}

func (*AcquiresFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "mutex acquisition order must form a DAG across fabric/mpi/gasnet/core",
	Run:       run,
	FactTypes: []analysis.Fact{(*LockGraphFact)(nil), (*AcquiresFact)(nil)},
}

var guardRe = regexp.MustCompile(`guarded by (\S+)`)

func run(pass *analysis.Pass) error {
	s := &state{
		pass:     pass,
		acquires: map[*types.Func]map[string]bool{},
		edgePos:  map[Edge]ast.Node{},
		guards:   collectGuards(pass),
	}

	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}

	// Fixpoint the per-function acquire sets over the local call graph, then
	// sweep once more collecting edges (so edges through local helpers use
	// complete summaries).
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			if s.visitFunc(fd, false) {
				changed = true
			}
		}
	}
	for _, fd := range fns {
		s.visitFunc(fd, true)
	}

	for fn, locks := range s.acquires {
		if len(locks) == 0 {
			continue
		}
		s.pass.ExportFunctionFact(fn, &AcquiresFact{Locks: sorted(locks)})
	}

	// Merge dependency graphs, add own edges, detect cycles, re-export.
	merged := map[Edge]bool{}
	for _, imp := range pass.Pkg.Imports() {
		var fact LockGraphFact
		if pass.ImportPackageFact(imp.Path(), &fact) {
			for _, e := range fact.Edges {
				merged[e] = true
			}
		}
	}
	for e := range s.edgePos {
		merged[e] = true
	}
	s.reportCycles(merged)

	var all []Edge
	for e := range merged {
		all = append(all, e)
	}
	sortEdges(all)
	pass.ExportPackageFact(&LockGraphFact{Edges: all})
	return nil
}

type state struct {
	pass *analysis.Pass
	// acquires: function -> set of lock IDs it (transitively) acquires.
	acquires map[*types.Func]map[string]bool
	// edgePos: own-package edges with a witness site.
	edgePos map[Edge]ast.Node
	// guards: struct type -> guard lock IDs (from guardedby annotations),
	// seeding the held set of *Locked methods.
	guards map[*types.Named][]string
}

// collectGuards finds `// guarded by mu` annotated struct fields and maps
// each named struct type to its guard mutex lock IDs.
func collectGuards(pass *analysis.Pass) map[*types.Named][]string {
	out := map[*types.Named][]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				seen := map[string]bool{}
				for _, field := range st.Fields.List {
					for _, cm := range []*ast.CommentGroup{field.Comment, field.Doc} {
						if cm == nil {
							continue
						}
						if m := guardRe.FindStringSubmatch(cm.Text()); m != nil {
							id := analysis.PkgBase(pass.Pkg) + "." + ts.Name.Name + "." + m[1]
							if !seen[id] {
								seen[id] = true
								out[named] = append(out[named], id)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// lockID names the mutex a sync.(RW)Mutex method call operates on, or "".
func (s *state) lockID(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		// Package-level mutex var, or embedded mutex on a local ident —
		// only package-level vars get an identity.
		obj := s.pass.TypesInfo.Uses[recv]
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return analysis.PkgBase(v.Pkg()) + "." + v.Name()
		}
	case *ast.SelectorExpr:
		// x.mu.Lock(): identify by the field's owning struct type.
		fsel, ok := s.pass.TypesInfo.Selections[recv]
		if !ok {
			// otherpkg.Mu.Lock(): a package-qualified mutex var.
			if v, isVar := s.pass.TypesInfo.Uses[recv.Sel].(*types.Var); isVar &&
				v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return analysis.PkgBase(v.Pkg()) + "." + v.Name()
			}
			return ""
		}
		v, ok := fsel.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return ""
		}
		t := fsel.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return analysis.PkgBase(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + v.Name()
		}
	}
	return ""
}

// isMutexMethod classifies sync mutex calls: +1 acquire, -1 release, 0 other.
func isMutexMethod(fn *types.Func) int {
	if fn == nil || fn.Pkg() == nil || analysis.PkgBase(fn.Pkg()) != "sync" {
		return 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return 1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

// visitFunc walks one function, growing its acquire summary; with emit set it
// also records nesting edges. Returns whether the summary grew.
func (s *state) visitFunc(fd *ast.FuncDecl, emit bool) bool {
	fn, _ := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	if s.acquires[fn] == nil {
		s.acquires[fn] = map[string]bool{}
	}
	held := s.initialHeld(fn, fd)
	w := &walker{state: s, fn: fn, emit: emit}
	w.block(fd.Body.List, held)
	return w.grew
}

// initialHeld seeds the held set: a *Locked method runs with its receiver's
// annotated guard mutex held (the guardedby convention).
func (s *state) initialHeld(fn *types.Func, fd *ast.FuncDecl) []string {
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return append([]string(nil), s.guards[named]...)
	}
	return nil
}

// walker tracks the held-lock stack through one function body,
// straight-line within blocks; branches inherit and do not leak.
type walker struct {
	*state
	fn   *types.Func
	emit bool
	grew bool
}

func (w *walker) acquire(id string) {
	if !w.acquires[w.fn][id] {
		w.acquires[w.fn][id] = true
		w.grew = true
	}
}

// block walks statements with the current held stack, returning the stack
// state at fall-through.
func (w *walker) block(stmts []ast.Stmt, held []string) []string {
	for _, st := range stmts {
		held = w.stmt(st, held)
	}
	return held
}

func (w *walker) stmt(st ast.Stmt, held []string) []string {
	switch x := st.(type) {
	case *ast.BlockStmt:
		return w.block(x.List, held)
	case *ast.IfStmt:
		held = w.scanExpr(x.Cond, held)
		w.stmt(x.Body, append([]string(nil), held...))
		if x.Else != nil {
			w.stmt(x.Else, append([]string(nil), held...))
		}
		return held
	case *ast.ForStmt:
		w.stmt(x.Body, append([]string(nil), held...))
		return held
	case *ast.RangeStmt:
		held = w.scanExpr(x.X, held)
		w.stmt(x.Body, append([]string(nil), held...))
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				w.block(cc.Body, append([]string(nil), held...))
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				w.block(cc.Body, append([]string(nil), held...))
				return false
			}
			return true
		})
		return held
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end: no state
		// change now. A deferred Lock never happens in practice; skip.
		return held
	case *ast.GoStmt:
		// The goroutine starts with an empty held set.
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, nil)
		}
		return held
	default:
		var out []string = held
		ast.Inspect(st, func(n ast.Node) bool {
			switch y := n.(type) {
			case *ast.FuncLit:
				// Closures run under the lock state of their creation point
				// only when invoked inline; conservatively walk with the
				// current stack (matches guardedby).
				w.block(y.Body.List, append([]string(nil), out...))
				return false
			case *ast.CallExpr:
				out = w.call(y, out)
				return true
			}
			return true
		})
		return out
	}
}

// scanExpr walks an expression for calls (lock operations in conditions).
func (w *walker) scanExpr(e ast.Expr, held []string) []string {
	if e == nil {
		return held
	}
	out := held
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out = w.call(call, out)
		}
		return true
	})
	return out
}

// call applies one call to the held stack and records edges.
func (w *walker) call(call *ast.CallExpr, held []string) []string {
	callee := analysis.CalleeFunc(w.pass.TypesInfo, call)
	switch isMutexMethod(callee) {
	case 1:
		id := w.lockID(call)
		if id == "" {
			return held
		}
		w.acquire(id)
		w.edges(held, id, call)
		return append(held, id)
	case -1:
		id := w.lockID(call)
		if id == "" {
			return held
		}
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == id {
				return append(append([]string(nil), held[:i]...), held[i+1:]...)
			}
		}
		return held
	}
	if callee == nil {
		return held
	}
	// A callee that acquires locks nests them under everything held here.
	for _, l := range w.calleeAcquires(callee) {
		w.acquire(l)
		w.edges(held, l, call)
	}
	return held
}

// calleeAcquires resolves a callee's acquire set from the local fixpoint or
// an imported fact.
func (w *walker) calleeAcquires(fn *types.Func) []string {
	if locks, ok := w.acquires[fn]; ok {
		return sorted(locks)
	}
	var fact AcquiresFact
	if w.pass.ImportFunctionFact(fn, &fact) {
		return fact.Locks
	}
	return nil
}

// edges records held → to for every currently-held lock.
func (w *walker) edges(held []string, to string, site ast.Node) {
	if !w.emit {
		return
	}
	for _, h := range held {
		if h == to {
			continue
		}
		e := Edge{From: h, To: to}
		if _, ok := w.edgePos[e]; !ok {
			w.edgePos[e] = site
		}
	}
}

// reportCycles flags every own-package edge on a cycle of the merged graph.
func (s *state) reportCycles(merged map[Edge]bool) {
	adj := map[string][]string{}
	for e := range merged {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, outs := range adj {
		sort.Strings(outs)
	}
	var ownEdges []Edge
	for e := range s.edgePos {
		ownEdges = append(ownEdges, e)
	}
	sortEdges(ownEdges)
	for _, e := range ownEdges {
		if path := findPath(adj, e.To, e.From); path != nil {
			cycle := append([]string{e.From}, path...)
			s.pass.Reportf(s.edgePos[e].Pos(), "lock order cycle: %s", strings.Join(cycle, " -> "))
		}
	}
}

// findPath BFSes from src to dst, returning the node path (src..dst) or nil.
func findPath(adj map[string][]string, src, dst string) []string {
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var path []string
			for at := dst; at != ""; at = prev[at] {
				path = append([]string{at}, path...)
				if at == src {
					break
				}
			}
			return path
		}
		for _, m := range adj[n] {
			if _, seen := prev[m]; !seen {
				prev[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}

func sorted(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
}

// Render formats an edge set as the human-auditable partial-order artifact:
// the sorted edge list followed by a topological layering (Kahn), or the
// cycle members when no complete order exists. The repo test pins this
// output as LOCKORDER.golden.
func Render(edges []Edge) string {
	var b strings.Builder
	b.WriteString("# Lock acquisition partial order (certified by caflint/lockorder)\n")
	b.WriteString("# edge: held-lock -> acquired-lock\n")
	dedup := map[Edge]bool{}
	for _, e := range edges {
		dedup[e] = true
	}
	var es []Edge
	for e := range dedup {
		es = append(es, e)
	}
	sortEdges(es)
	for _, e := range es {
		fmt.Fprintf(&b, "%s -> %s\n", e.From, e.To)
	}

	// Kahn layering over every mentioned lock.
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, e := range es {
		if _, ok := indeg[e.From]; !ok {
			indeg[e.From] = 0
		}
		indeg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
	}
	b.WriteString("\n# topological order (lock ranks; acquire top-down)\n")
	level := 0
	remaining := len(indeg)
	for remaining > 0 {
		var zero []string
		for n, d := range indeg {
			if d == 0 {
				zero = append(zero, n)
			}
		}
		if len(zero) == 0 {
			var stuck []string
			for n := range indeg {
				stuck = append(stuck, n)
			}
			sort.Strings(stuck)
			fmt.Fprintf(&b, "CYCLE among: %s\n", strings.Join(stuck, ", "))
			break
		}
		sort.Strings(zero)
		fmt.Fprintf(&b, "rank %d: %s\n", level, strings.Join(zero, ", "))
		for _, n := range zero {
			for _, m := range adj[n] {
				indeg[m]--
			}
			delete(indeg, n)
			remaining--
		}
		level++
	}
	return b.String()
}

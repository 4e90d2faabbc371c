// Package epochcheck defines an interprocedural RMA epoch-discipline checker,
// the static mirror of the dynamic sanitizer's rma-order findings. Over each
// function's control-flow graph (internal/analysis/cfg) it tracks the epoch
// state of every window whose lifecycle is locally visible:
//
//	WinAllocate ──▶ closed ──LockAll──▶ open ──RMA──▶ open+dirty
//	                  ▲                                   │
//	                  └──────────UnlockAll◀──Flush────────┘
//
// and reports (1) RMA calls while a window is provably closed, (2) an epoch
// closed while RMA is still unflushed, and (3) UnlockAll without an open
// epoch.
// Windows arriving through parameters, fields or interfaces have unknown
// state and are never reported directly — instead the pass exports a
// RequiresEpochFact naming the parameters a function performs RMA through, so
// a *caller* that passes a provably-closed window is flagged at the call
// site. That keeps the runtime's own style (rtmpi opens one lifetime LockAll
// epoch at segment allocation and does RMA through struct fields) quiet
// without a single suppression, while still catching the epochless path end
// to end. Deferred transfers are tracked the same way: a buffer filled by
// GetDeferred/GetRegisteredNBI is poisoned until a fence (Cofence, SyncNBIAll, any
// collective — the runtime release-fences before synchronizing); reading it
// earlier is flagged.
//
// The pass also enforces the PR 5 failure-latch contract on RMA: Put/Get
// error results must not be discarded.
//
// What it cannot prove: epochs opened and closed in different functions on
// the same locally-created window (the fact only travels through parameters),
// state through defer/goroutines (skipped, lenient), and aliasing. Those
// schedules stay with the dynamic sanitizer.
package epochcheck

import (
	"go/ast"
	"go/types"
	"sort"

	"cafmpi/internal/analysis"
	"cafmpi/internal/analysis/cafmodel"
	"cafmpi/internal/analysis/cfg"
)

// RequiresEpochFact marks a function that performs RMA through the listed
// parameters (0-based indices) without opening an epoch on them itself: the
// caller must pass windows with an epoch already open.
type RequiresEpochFact struct {
	Params []int `json:"params"`
}

func (*RequiresEpochFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "epochcheck",
	Doc:       "RMA must happen inside a passive-target epoch, be flushed before the epoch closes, and deferred results must not be read before a fence",
	Run:       run,
	FactTypes: []analysis.Fact{(*RequiresEpochFact)(nil)},
}

// wstate is a window's epoch state at a program point.
type wstate int

const (
	closed wstate = iota
	open
	openDirty // open with unflushed RMA
	unknown   // not locally provable; never reported
)

func join(a, b wstate) wstate {
	switch {
	case a == b:
		return a
	case a == unknown || b == unknown:
		return unknown
	case (a == open && b == openDirty) || (a == openDirty && b == open):
		return openDirty
	default: // closed vs open/openDirty: path-dependent, stop proving
		return unknown
	}
}

// flow is the dataflow value: window states plus poisoned deferred buffers.
type flow struct {
	win     map[types.Object]wstate
	pending map[types.Object]bool
}

func newFlow() flow {
	return flow{win: map[types.Object]wstate{}, pending: map[types.Object]bool{}}
}

func (f flow) clone() flow {
	g := newFlow()
	for k, v := range f.win {
		g.win[k] = v
	}
	for k := range f.pending {
		g.pending[k] = true
	}
	return g
}

// merge joins other into f, reporting whether f changed. An object absent
// from one side keeps the other side's state (its definition dominates every
// use, so the absent path cannot observe it).
func (f flow) merge(other flow) bool {
	changed := false
	for k, v := range other.win {
		if cur, ok := f.win[k]; !ok {
			f.win[k] = v
			changed = true
		} else if j := join(cur, v); j != cur {
			f.win[k] = j
			changed = true
		}
	}
	for k := range other.pending {
		if !f.pending[k] {
			f.pending[k] = true
			changed = true
		}
	}
	return changed
}

func run(pass *analysis.Pass) error {
	s := &state{pass: pass, requires: map[*types.Func][]int{}}
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	// Summary fixpoint first (no reporting): RequiresEpoch facts propagate
	// through local call chains before any function is judged.
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			if s.analyze(fd, nil) {
				changed = true
			}
		}
	}
	for fn, params := range s.requires {
		sort.Ints(params)
		s.pass.ExportFunctionFact(fn, &RequiresEpochFact{Params: params})
	}
	// Reporting sweep. Function literals are analyzed as anonymous bodies:
	// they report violations on windows whose lifecycle is visible inside
	// them, but export no obligations (there is no *types.Func to attach a
	// fact to; captured windows stay lenient).
	for _, fd := range fns {
		if analysis.IsTestFile(pass.Fset, fd.Pos()) {
			continue
		}
		s.analyze(fd, pass)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fl, ok := n.(*ast.FuncLit)
			if !ok || analysis.IsTestFile(pass.Fset, fl.Pos()) {
				return true
			}
			paramIdx := map[types.Object]int{}
			if sig, ok := pass.TypesInfo.TypeOf(fl).(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					paramIdx[sig.Params().At(i)] = i
				}
			}
			s.analyzeBody(fl.Body, nil, paramIdx, pass)
			return true
		})
	}
	return nil
}

type state struct {
	pass *analysis.Pass
	// requires accumulates the per-function epochless-RMA parameter sets.
	requires map[*types.Func][]int
}

// winObj resolves a method call's receiver to a trackable object (a plain
// identifier of window type), or nil for fields/expressions (lenient).
func (s *state) winObj(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = s.pass.TypesInfo.Defs[id]
	}
	return obj
}

// argObj resolves a call argument to a plain identifier's object.
func (s *state) argObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return s.pass.TypesInfo.Uses[id]
}

// analyze runs the dataflow over one function. When report is non-nil,
// diagnostics are emitted; otherwise only the RequiresEpoch summary is
// (re)computed. It reports whether the function's summary grew.
func (s *state) analyze(fd *ast.FuncDecl, report *analysis.Pass) bool {
	fn, _ := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	paramIdx := map[types.Object]int{}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			paramIdx[sig.Params().At(i)] = i
		}
	}
	return s.analyzeBody(fd.Body, fn, paramIdx, report)
}

// analyzeBody is the shared dataflow engine behind analyze; fn is nil for
// function literals, which report but never accumulate a summary.
func (s *state) analyzeBody(body *ast.BlockStmt, fn *types.Func, paramIdx map[types.Object]int, report *analysis.Pass) bool {
	g := cfg.New(body)
	entry := make([]flow, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	entry[g.Entry.Index] = newFlow()
	seen[g.Entry.Index] = true

	before := len(s.requires[fn])
	rpo := g.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if !seen[b.Index] {
				continue
			}
			out := entry[b.Index].clone()
			s.transfer(fn, paramIdx, b, out, nil)
			for _, succ := range b.Succs {
				if !seen[succ.Index] {
					entry[succ.Index] = out.clone()
					seen[succ.Index] = true
					changed = true
				} else if entry[succ.Index].merge(out) {
					changed = true
				}
			}
		}
	}

	grew := len(s.requires[fn]) != before
	if report != nil {
		for _, b := range rpo {
			if !seen[b.Index] {
				continue
			}
			out := entry[b.Index].clone()
			s.transfer(fn, paramIdx, b, out, report)
		}
	}
	return grew
}

// addRequire records that fn does epochless RMA through parameter i.
func (s *state) addRequire(fn *types.Func, i int) bool {
	if fn == nil {
		return false // function literal: nothing to attach the fact to
	}
	for _, p := range s.requires[fn] {
		if p == i {
			return false
		}
	}
	s.requires[fn] = append(s.requires[fn], i)
	return true
}

// requiresOf returns the epochless-parameter set of a callee, from the local
// fixpoint or an imported fact.
func (s *state) requiresOf(fn *types.Func) []int {
	if p, ok := s.requires[fn]; ok {
		return p
	}
	var fact RequiresEpochFact
	if s.pass.ImportFunctionFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// isWindow reports whether t is (a pointer to) an mpi window type.
func isWindow(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	return name == "Win" && n.Obj().Pkg() != nil &&
		analysis.PkgBase(n.Obj().Pkg()) == "mpi"
}

// transfer applies one block's nodes to f in order. With report non-nil it
// also emits diagnostics; during the fixpoint it instead accumulates the
// RequiresEpoch summary for fn.
func (s *state) transfer(fn *types.Func, paramIdx map[types.Object]int, b *cfg.Block, f flow, report *analysis.Pass) {
	for _, node := range b.Nodes {
		switch node.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred/concurrent execution: state changes happen at another
			// time; stay lenient.
			continue
		}
		exempt := map[*ast.Ident]bool{}
		var discarded *ast.CallExpr
		if es, ok := node.(*ast.ExprStmt); ok {
			discarded, _ = es.X.(*ast.CallExpr)
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				// A write to a pending buffer is not a read of the deferred
				// result.
				for _, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						exempt[id] = true
					}
				}
			case *ast.CallExpr:
				s.call(fn, paramIdx, x, f, exempt, x == discarded, report)
			case *ast.Ident:
				if exempt[x] {
					return true
				}
				if obj := s.pass.TypesInfo.Uses[x]; obj != nil && f.pending[obj] {
					if report != nil {
						report.Reportf(x.Pos(), "deferred get result %s read before a fence (Cofence/SyncNBIAll/collective)", x.Name)
					}
					delete(f.pending, obj)
				}
			}
			return true
		})
		// A window-typed assignment from a creator call closes the window.
		if as, ok := node.(*ast.AssignStmt); ok {
			s.creatorAssign(as, f)
		}
	}
}

// creatorAssign marks windows assigned from WinAllocate-family calls closed.
func (s *state) creatorAssign(as *ast.AssignStmt, f flow) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	callee := analysis.CalleeFunc(s.pass.TypesInfo, call)
	if callee == nil || !cafmodel.WinCreators[cafmodel.KeyOf(callee)] {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := s.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = s.pass.TypesInfo.Uses[id]
		}
		if obj != nil && isWindow(obj.Type()) {
			f.win[obj] = closed
		}
	}
}

// stateOf reads a window object's current state (unknown when untracked).
func (f flow) stateOf(obj types.Object) wstate {
	if obj == nil {
		return unknown
	}
	if st, ok := f.win[obj]; ok {
		return st
	}
	return unknown
}

// call applies one call's epoch/deferred semantics. discarded marks a call
// whose results are dropped (the whole statement is the call).
func (s *state) call(fn *types.Func, paramIdx map[types.Object]int, call *ast.CallExpr, f flow, exempt map[*ast.Ident]bool, discarded bool, report *analysis.Pass) {
	callee := analysis.CalleeFunc(s.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	k := cafmodel.KeyOf(callee)

	switch {
	case cafmodel.EpochOpen[k]:
		if obj := s.winObj(call); obj != nil {
			f.win[obj] = open
		}

	case cafmodel.EpochClose[k]:
		obj := s.winObj(call)
		switch f.stateOf(obj) {
		case openDirty:
			if report != nil {
				report.Reportf(call.Pos(), "%s closes the epoch on %s with unflushed RMA; Flush before UnlockAll", k.Name, objName(obj))
			}
		case closed:
			if report != nil {
				report.Reportf(call.Pos(), "%s on %s without an open epoch", k.Name, objName(obj))
			}
		}
		if obj != nil && f.stateOf(obj) != unknown {
			f.win[obj] = closed
		}

	case cafmodel.RMAOps[k]:
		obj := s.winObj(call)
		switch f.stateOf(obj) {
		case closed:
			if report != nil {
				report.Reportf(call.Pos(), "RMA %s on %s outside any passive-target epoch; open one with LockAll first", render(k), objName(obj))
			}
		case open:
			f.win[obj] = openDirty
		case unknown:
			// RMA through a parameter: the caller owes the epoch.
			if obj != nil {
				if i, ok := paramIdx[obj]; ok {
					s.addRequire(fn, i)
				}
			}
		}

	case cafmodel.WinFlush[k]:
		obj := s.winObj(call)
		switch f.stateOf(obj) {
		case closed:
			if report != nil {
				report.Reportf(call.Pos(), "%s on %s outside any passive-target epoch", k.Name, objName(obj))
			}
		case openDirty:
			f.win[obj] = open
		}
	}

	// Deferred-get producers poison their destination buffer.
	if dst, ok := cafmodel.DeferredGets[k]; ok && dst < len(call.Args) {
		for _, id := range identsOf(call.Args[dst]) {
			exempt[id] = true
		}
		if obj := s.argObj(call.Args[dst]); obj != nil {
			f.pending[obj] = true
		}
	}
	// Fences complete every outstanding deferred transfer.
	if cafmodel.IsFence(k) {
		for obj := range f.pending {
			delete(f.pending, obj)
		}
	}

	// Calling a function that does epochless RMA through a parameter with a
	// provably-closed window is the interprocedural out-of-epoch case.
	for _, i := range s.requiresOf(callee) {
		if i >= len(call.Args) {
			continue
		}
		obj := s.argObj(call.Args[i])
		switch f.stateOf(obj) {
		case closed:
			if report != nil {
				report.Reportf(call.Pos(), "%s passed to %s, which performs RMA on it, but no epoch is open", objName(obj), callee.Name())
			}
		case unknown:
			// Forwarding an own parameter transfers the obligation up.
			if obj != nil {
				if pi, ok := paramIdx[obj]; ok {
					s.addRequire(fn, pi)
				}
			}
		}
	}

	// Failure-latch contract: RMA and coarray transfer errors must be
	// checked. A bare-statement call discards them.
	if report != nil && discarded && isTransfer(k) && returnsError(callee) {
		report.Reportf(call.Pos(), "%s error discarded; the failure latch requires every RMA/transfer error checked", render(k))
	}
}

// isTransfer reports whether k is an RMA or coarray transfer whose error
// participates in the failure latch.
func isTransfer(k cafmodel.Key) bool {
	if cafmodel.RMAOps[k] {
		return true
	}
	if k.Pkg == "core" && k.Recv == "Coarray" {
		switch k.Name {
		case "Put", "Get", "PutDeferred", "GetDeferred", "PutAsync", "GetAsync":
			return true
		}
	}
	if k.Pkg == "gasnet" && k.Recv == "Ep" {
		switch k.Name {
		case "PutRegistered", "GetRegistered", "PutRegisteredNBI", "GetRegisteredNBI":
			return true
		}
	}
	return false
}

// returnsError reports whether fn's last result is the builtin error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	n, ok := last.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// identsOf collects the identifiers of an expression.
func identsOf(e ast.Expr) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

func objName(obj types.Object) string {
	if obj == nil {
		return "window"
	}
	return obj.Name()
}

func render(k cafmodel.Key) string {
	if k.Recv == "" {
		return k.Pkg + "." + k.Name
	}
	return k.Pkg + "." + k.Recv + "." + k.Name
}

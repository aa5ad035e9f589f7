package analysis

// ctxflow machine-checks context hygiene. Contexts are the module's
// cancellation spine: the gateway's request path propagates deadlines
// into batching waits, and loadgen's run loops exit by ctx. Three
// mistakes silently cut that spine, and none of them is a compile
// error:
//
//   - a WithCancel/WithTimeout/WithDeadline cancel function that is not
//     called on every path to return leaks the context's timer and
//     watcher goroutine (and discarding it as `_` leaks always). ctxflow
//     runs a must-analysis over the CFG: on every path from the
//     derivation to function exit the cancel must be called, deferred,
//     or handed off (passed, stored, returned); otherwise the
//     derivation site is diagnosed.
//   - a function that receives a ctx parameter, never uses it, and yet
//     calls module-internal functions that accept a context has dropped
//     the caller's deadline on the floor — the callee blocks under a
//     context the caller cannot cancel. Diagnosed at the parameter.
//   - context.Background()/TODO() inside any function that already has
//     a ctx parameter is diagnosed module-wide; inside the request-path
//     packages (a ForbiddenCalls row) it mints a fresh root mid-request,
//     detaching the work from the caller's deadline.
//
// Handed-off cancels are accepted optimistically (any mention beyond a
// plain call counts as an escape) — the analyzer chases provable local
// leaks, not inter-procedural ownership.

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer implements the ctxflow check.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "context hygiene: every cancel called on every path, ctx parameters threaded into ctx-taking callees, no fresh root contexts in request paths",
	Run:  runCtxFlow,
}

func runCtxFlow(ix *funcIndex) []Diagnostic {
	var diags []Diagnostic
	reported := map[*ast.CallExpr]bool{}
	for _, r := range ix.roots {
		info := r.pkg.Info
		var ctxParams []*types.Var
		if r.typ.Params != nil {
			for _, field := range r.typ.Params.List {
				for _, name := range field.Names {
					if obj, ok := info.Defs[name].(*types.Var); ok && isContextType(obj.Type()) {
						ctxParams = append(ctxParams, obj)
					}
				}
			}
		}

		// Rule: no fresh root context where the caller's deadline
		// already flows in. (The request-path ban is a ForbiddenCalls
		// row, applied below to the calls not reported here.)
		firstCtxCallee := ""
		for _, cs := range r.calls {
			name := cs.callee.Name()
			mintsRoot := cs.callee.Pkg() != nil && cs.callee.Pkg().Path() == "context" && (name == "Background" || name == "TODO")
			if mintsRoot && len(ctxParams) > 0 {
				reported[cs.call] = true
				diags = append(diags, ix.diag("ctxflow", cs.call.Pos(), "context."+name+
					"() inside a function that already receives a ctx; "+
					"derive from the parameter so the caller's deadline and cancellation propagate"))
			}
			if firstCtxCallee == "" && ix.decls[cs.callee] != nil && takesCtx(cs.callee) {
				firstCtxCallee = name
			}
		}

		// Rule: a received ctx must be used, not dropped, when ctx-taking
		// module functions are called.
		for _, p := range ctxParams {
			if p.Name() != "_" && firstCtxCallee != "" && !objUsed(info, r.body, p) {
				diags = append(diags, ix.diag("ctxflow", p.Pos(), "ctx parameter "+p.Name()+
					" is never used, but the body calls "+firstCtxCallee+
					", which accepts a context; thread the caller's ctx through instead of dropping its deadline"))
			}
		}

		diags = append(diags, checkCancelFlow(ix, r)...)
	}
	return append(diags, forbiddenCalls(ix, "ctxflow", reported)...)
}

// takesCtx reports whether fn has a context.Context parameter.
func takesCtx(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// objUsed reports whether obj is referenced anywhere in body, including
// inside nested literals (a closure capturing the ctx counts as use).
func objUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// checkCancelFlow tracks context.CancelFunc bindings in one root and
// demands each is handled on every path to exit.
func checkCancelFlow(ix *funcIndex, r *funcRoot) []Diagnostic {
	info := r.pkg.Info
	var diags []Diagnostic
	// Collect the cancels this root derives.
	tracked := map[types.Object]*ast.Ident{}
	each(r.body, func(as *ast.AssignStmt) {
		if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if _, isCall := as.Rhs[0].(*ast.CallExpr); !ok || !isCall {
			return
		}
		if id.Name == "_" {
			// Is the discarded value a CancelFunc? Check the call's
			// second result type.
			if tup, ok := info.TypeOf(as.Rhs[0]).(*types.Tuple); ok && tup.Len() == 2 && isCancelFuncType(tup.At(1).Type()) {
				diags = append(diags, ix.diag("ctxflow", id.Pos(), "cancel function discarded as _; the derived context's "+
					"timer and watcher goroutine leak until the parent dies — bind it and defer cancel()"))
			}
		} else if obj, ok := info.Defs[id].(*types.Var); ok && isCancelFuncType(obj.Type()) {
			tracked[obj] = id
		}
	})
	if len(tracked) == 0 {
		return diags
	}
	// Must-analysis: the cancels handled on every path to this point.
	// Any mention of the cancel object — a call, a defer, an argument, a
	// store, a capture in a literal — counts as handled: escapes are
	// accepted optimistically. The Defs ident of the derivation itself is
	// not a Use, so the binding statement does not self-satisfy; deferred
	// cancels count at their registration point.
	fx := setFacts(mustJoin, func(f objSet, n ast.Node) objSet {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && tracked[info.Uses[id]] != nil {
				f = f.with(info.Uses[id], struct{}{})
			}
			return true
		})
		return f
	})
	exit, reachable := ExitFact(r.cfg, Forward(r.cfg, nil, fx))
	if !reachable {
		return diags
	}
	for obj, id := range tracked {
		if !exit.has(obj) {
			diags = append(diags, ix.diag("ctxflow", id.Pos(), "cancel function "+obj.Name()+
				" is not called on every path to return; a path that skips it leaks the context's timer "+
				"and watcher goroutine — defer "+obj.Name()+"() immediately after deriving"))
		}
	}
	return diags
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamedType(t, "context", "Context") }

// isCancelFuncType reports whether t is context.CancelFunc.
func isCancelFuncType(t types.Type) bool { return isNamedType(t, "context", "CancelFunc") }

package analysis

// goroutinelife proves that every goroutine the module spawns can stop.
// The data plane's long-running concurrency — per-instance batching
// loops, FitPool fan-out workers, loadgen workers, the bench runner —
// is torn down by hand-maintained convention (close a quit channel,
// close the work feed, cancel a context), and a `go` statement whose
// body misses the convention leaks a goroutine forever: invisible to
// unit tests, fatal at control-plane scale. For every `go` statement in
// non-test code the analyzer resolves the spawned body (a function
// literal in place, or the declaration of a statically resolved
// function/method call) and demands a provable termination path:
//
//   - a `for range ch` loop over a channel must have at least one
//     resolved close site somewhere in the module (the close owner is
//     what ends the range);
//   - an unbounded `for {}` / `for cond` loop must contain an exit
//     signal: a receive (select case or direct) from a channel some
//     close site resolves to, a receive from ctx.Done(), or a loop
//     condition consulting ctx.Err();
//   - three-clause `for init; cond; post` loops are treated as bounded
//     counters, and loops over slices/maps/arrays/integers terminate by
//     construction.
//
// The second leak shape is blocked-forever sends — the classic
// timeout-path leak: a spawned goroutine sends its result on an
// unbuffered channel while the only receiver sits in a multi-arm
// select, so the moment the receiver takes the timeout arm the sender
// blocks for the rest of the process. The analyzer flags a send, from a
// go-literal, on an unbuffered channel made in the spawning function
// whose receives all sit in selects with an alternative arm; buffering
// the channel (capacity >= number of sends) is the canonical fix.
//
// Approximations, by design: only the spawned body itself is analyzed
// (a helper the goroutine calls into is not descended into, except for
// the `go helper()` form, which resolves one level); a receive from a
// closable channel anywhere inside a loop counts as that loop's exit
// signal even if the loop could ignore it; `go` through a function
// value or interface method is skipped. Suppress with
// //lint:ignore goroutinelife <reason> where a goroutine is
// intentionally process-lifetime.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// GoroutineLifeAnalyzer implements the goroutinelife check.
var GoroutineLifeAnalyzer = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every spawned goroutine has a provable termination path: a stop channel someone closes, a context, a drained work feed, or a bounded loop",
	Run:  runGoroutineLife,
}

func runGoroutineLife(ix *funcIndex) []Diagnostic {
	var diags []Diagnostic
	for _, r := range ix.roots {
		each(r.body, func(gs *ast.GoStmt) {
			lit, isLit := gs.Call.Fun.(*ast.FuncLit)
			if isLit {
				diags = append(diags, checkSpawnedBody(ix, r.pkg, gs, lit.Body)...)
				diags = append(diags, checkBlockedSend(ix, r.pkg, gs, lit.Body, r.body)...)
			} else if fn := funcOf(r.pkg.Info, gs.Call); fn != nil && ix.decls[fn] != nil {
				diags = append(diags, checkSpawnedBody(ix, r.pkg, gs, ix.decls[fn].body)...)
			} // else dynamic dispatch: unresolvable, an accepted approximation
		})
	}
	return diags
}

// checkSpawnedBody demands a termination path for every unbounded loop
// in the spawned body.
func checkSpawnedBody(ix *funcIndex, pkg *Package, gs *ast.GoStmt, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	line := func(n ast.Node) string { return strconv.Itoa(ix.Fset.Position(n.Pos()).Line) }
	each(body, func(n ast.Node) {
		switch loop := n.(type) {
		case *ast.RangeStmt:
			// Slices, maps and ints terminate by construction; an
			// unresolvable channel expression is an accepted approximation.
			if t, ok := pkg.Info.Types[loop.X]; ok && isChan(t.Type) {
				if obj := chanTargetObj(pkg, loop.X); obj != nil && len(ix.closes[obj]) == 0 {
					diags = append(diags, ix.diag("goroutinelife", gs.Pos(), "goroutine ranges over channel "+obj.Name()+
						" (line "+line(loop)+") but nothing in the module closes it; the loop, and the goroutine, can never end"))
				}
			}
		case *ast.ForStmt:
			// A three-clause counter loop is bounded by construction.
			if (loop.Cond == nil || loop.Post == nil) && !loopHasExitSignal(ix, pkg, loop) {
				diags = append(diags, ix.diag("goroutinelife", gs.Pos(), "goroutine has no provable termination: the loop at line "+
					line(loop)+" neither receives on a channel anyone closes nor consults a context; "+
					"select on a stop channel or ctx.Done() inside the loop"))
			}
		}
	})
	return diags
}

func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// loopHasExitSignal reports whether the loop (condition plus body,
// excluding nested function literals) contains a receive from a channel
// with a resolved close site, a receive from ctx.Done(), or a condition
// consulting ctx.Err().
func loopHasExitSignal(ix *funcIndex, pkg *Package, loop *ast.ForStmt) bool {
	found := false
	for _, part := range []ast.Node{loop.Cond, loop.Body} {
		each(part, func(n ast.Node) {
			switch m := n.(type) {
			case *ast.UnaryExpr:
				obj := chanTargetObj(pkg, m.X)
				found = found || (m.Op == token.ARROW &&
					(isCtxMethodCall(pkg, m.X, "Done") || (obj != nil && len(ix.closes[obj]) > 0)))
			case *ast.CallExpr:
				found = found || isCtxMethodCall(pkg, m, "Err")
			}
		})
	}
	return found
}

// isCtxMethodCall reports whether e is a call of the named method on a
// context.Context value (ctx.Done(), ctx.Err()).
func isCtxMethodCall(pkg *Package, e ast.Expr, method string) bool {
	call, ok := unwrapAlias(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	t, ok := pkg.Info.Types[sel.X]
	return ok && isContextType(t.Type)
}

// checkBlockedSend flags the timeout-path leak: the spawned literal
// sends on an unbuffered channel made in the spawning function, and the
// spawning function's receive sits in a select with an alternative arm.
func checkBlockedSend(ix *funcIndex, pkg *Package, gs *ast.GoStmt, body *ast.BlockStmt, encl *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	each(body, func(send *ast.SendStmt) {
		obj := chanTargetObj(pkg, send.Chan)
		if obj != nil && unbufferedLocalChan(pkg, encl, obj) && selectCanAbandonReceive(pkg, encl, obj) {
			diags = append(diags, ix.diag("goroutinelife", gs.Pos(), "goroutine sends on unbuffered "+obj.Name()+
				" while the receiver sits in a multi-arm select; once the receiver takes "+
				"another arm the send blocks forever — make "+obj.Name()+" buffered"))
		}
	})
	return diags
}

// unbufferedLocalChan reports whether obj is defined in body by an
// unbuffered make(chan T).
func unbufferedLocalChan(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	unbuffered := false
	each(body, func(as *ast.AssignStmt) {
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || pkg.Info.Defs[id] != obj || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok || !isBuiltin(pkg.Info, call, "make") || !isChan(pkg.Info.TypeOf(call)) {
				continue
			}
			if len(call.Args) == 1 {
				unbuffered = true
			} else if tv := pkg.Info.Types[call.Args[1]]; tv.Value != nil && tv.Value.String() == "0" {
				unbuffered = true
			}
		}
	})
	return unbuffered
}

// selectCanAbandonReceive reports whether body contains a select with a
// receive from obj plus at least one alternative arm — the shape where
// the receiver can return without ever receiving.
func selectCanAbandonReceive(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	each(body, func(sel *ast.SelectStmt) {
		for _, c := range sel.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil && len(sel.Body.List) > 1 {
				each(comm, func(u *ast.UnaryExpr) {
					found = found || (u.Op == token.ARROW && chanTargetObj(pkg, u.X) == obj)
				})
			}
		}
	})
	return found
}

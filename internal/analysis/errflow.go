package analysis

// errflow finds silently dropped errors in the control-plane packages
// (scheduler, cluster, gateway, telemetry, bench). Two shapes:
//
//   - an error-returning call used as a bare statement ("discarded"):
//     the result never existed as a value;
//   - an error assigned to a local variable that no path ever reads
//     before the variable is overwritten or the function returns
//     ("assigned then never read") — a flow-sensitive property computed
//     by forward reachability over the CFG from each definition.
//
// Deliberate drops are written as `_ = call()` or carry a
// //lint:ignore errflow directive. Exemptions that keep the analyzer
// quiet on idiomatic code: fmt.Print*/Fprint* (their error is about the
// destination writer, conventionally ignored on stderr/stdout),
// strings.Builder and bytes.Buffer writes (documented to never fail),
// deferred calls (defer cannot bind a result), and variables captured
// by a closure (the read may happen on another goroutine or later
// invocation, beyond intraprocedural reach).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errFlowScope lists the packages the analyzer covers.
var errFlowScope = []string{
	"internal/scheduler",
	"internal/cluster",
	"internal/gateway",
	"internal/telemetry",
	"internal/bench",
}

// ErrFlowAnalyzer implements the errflow check.
var ErrFlowAnalyzer = &Analyzer{
	Name: "errflow",
	Doc:  "error results in control-plane packages must be read on some path or explicitly discarded",
	Run:  runErrFlow,
}

func runErrFlow(ix *funcIndex) []Diagnostic {
	var diags []Diagnostic
	for _, r := range ix.roots {
		if !inScope(r.pkg.Path, errFlowScope) {
			continue
		}
		info := r.pkg.Info
		each(r.body, func(stmt *ast.ExprStmt) {
			if call, ok := stmt.X.(*ast.CallExpr); ok && returnsError(info, call) && !exemptDiscard(info, call) {
				diags = append(diags, ix.diag("errflow", call.Pos(), "error result of "+calleeLabel(info, call)+
					" is discarded; handle it, return it, or assign to _ deliberately"))
			}
		})
		diags = append(diags, checkDeadAssigns(ix, r)...)
	}
	return diags
}

// returnsError reports whether any result of the call has type error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(tv.Type)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// exemptDiscard allows the conventional always-ignored error sources.
func exemptDiscard(info *types.Info, call *ast.CallExpr) bool {
	fn := funcOf(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if named := recvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		pkgPath, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
		if (pkgPath == "strings" && typeName == "Builder") ||
			(pkgPath == "bytes" && typeName == "Buffer") {
			return true
		}
	}
	return false
}

// calleeLabel names the call target for the diagnostic message.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	if fn := funcOf(info, call); fn != nil {
		if named := recvNamed(fn); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return types.ExprString(call.Fun)
}

// checkDeadAssigns flags error variables assigned from a call and never
// read on any path before redefinition or exit.
func checkDeadAssigns(ix *funcIndex, r *funcRoot) []Diagnostic {
	info := r.pkg.Info
	// A bare return reads the named results; objects referenced inside a
	// function literal may be read beyond this CFG.
	exempt := map[types.Object]bool{}
	if r.typ.Results != nil {
		for _, field := range r.typ.Results.List {
			for _, name := range field.Names {
				exempt[info.Defs[name]] = true
			}
		}
	}
	for _, lit := range r.cfg.FuncLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				exempt[info.Uses[id]] = true
			}
			return true
		})
	}
	var diags []Diagnostic
	for _, blk := range r.cfg.Blocks {
		for i, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || !rhsHasCall(as) {
				continue
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := identObj(info, id)
				if obj == nil || !isErrorType(obj.Type()) || exempt[obj] ||
					obj.Pos() < r.body.Pos() || obj.Pos() > r.body.End() { // parameter or package-level var
					continue
				}
				if !defEverRead(info, obj, blk, i) {
					diags = append(diags, ix.diag("errflow", as.Pos(), "error assigned to "+id.Name+
						" is never read on any path; handle it or discard with _"))
				}
			}
		}
	}
	return diags
}

// rhsHasCall reports whether the assignment's RHS contains a call (the
// analyzer only tracks errors produced by calls, not re-shuffles).
func rhsHasCall(as *ast.AssignStmt) bool {
	found := false
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			_, isCall := n.(*ast.CallExpr)
			found = found || isCall
			return !found
		})
	}
	return found
}

// defEverRead walks forward from the definition at blk.Nodes[i]
// looking for a read of obj before a redefinition kills it on that path.
func defEverRead(info *types.Info, obj types.Object, blk *Block, i int) bool {
	// scan reports whether nodes read obj, or else kill it, first.
	scan := func(nodes []ast.Node) (read, killed bool) {
		for _, n := range nodes {
			if read, killed = nodeFate(info, n, obj); read || killed {
				return read, killed
			}
		}
		return false, false
	}
	if read, killed := scan(blk.Nodes[i+1:]); read || killed {
		return read
	}
	seen := map[*Block]bool{blk: true} // a loop back to the defining block is not rescanned
	for work := append([]*Block(nil), blk.Succs...); len(work) > 0; work = work[1:] {
		if b := work[0]; !seen[b] {
			seen[b] = true
			read, killed := scan(b.Nodes)
			if read {
				return true
			}
			if !killed {
				work = append(work, b.Succs...)
			}
		}
	}
	return false
}

// nodeFate classifies one CFG node's effect on obj: a read anywhere in
// the node wins over a kill (in `err = wrap(err)` the RHS reads the old
// value before the LHS redefines it).
func nodeFate(info *types.Info, n ast.Node, obj types.Object) (read, killed bool) {
	targets := map[*ast.Ident]bool{}
	each(n, func(as *ast.AssignStmt) {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				targets[id] = as.Tok == token.ASSIGN || as.Tok == token.DEFINE
				killed = killed || identObj(info, id) == obj
			}
		}
	})
	each(n, func(id *ast.Ident) {
		read = read || (info.Uses[id] == obj && !targets[id])
	})
	return read, killed
}

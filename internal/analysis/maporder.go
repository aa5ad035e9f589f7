package analysis

// maporder flags map iterations in the deterministic packages whose
// bodies produce ordered artifacts: appending to a slice that outlives
// the loop, printing or writing output, or accumulating into a float
// (float addition is not associative, so summation order changes the
// low bits and breaks byte-identical reports). Integer accumulation and
// writes into other maps are order-independent and stay legal, as does
// the collect-then-sort idiom: an append whose destination is sorted in
// the same function is accepted.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrderAnalyzer implements the maporder check.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration feeding ordered output unless the keys are sorted",
	Run:  runMapOrder,
}

func runMapOrder(ix *funcIndex) []Diagnostic {
	var diags []Diagnostic
	for _, r := range ix.roots {
		if r.fn == nil || !inScope(r.pkg.Path, deterministicScopes) {
			continue
		}
		sorted := sortedObjects(r.pkg.Info, r.body)
		ast.Inspect(r.body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if t := r.pkg.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						diags = append(diags, checkMapRange(ix, r.pkg, rs, sorted)...)
					}
				}
			}
			return true
		})
	}
	return diags
}

// outputFuncs are call names whose invocation inside a map range emits
// ordered output.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": false, // pure, order captured by its assignment instead
	"Write":  true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "AddRow": true,
}

// checkMapRange inspects one map-range body for order-dependent sinks.
func checkMapRange(ix *funcIndex, pkg *Package, rs *ast.RangeStmt, sorted map[types.Object]bool) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, ix.diag("maporder", pos, msg+" inside iteration over map "+types.ExprString(rs.X)+"; sort the keys first"))
	}
	body := rs.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) escaping the loop body.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(pkg.Info, call, "append") || i >= len(n.Lhs) {
					continue
				}
				obj := rootObject(pkg.Info, n.Lhs[i])
				if obj == nil || definedWithin(obj, body) || sorted[obj] {
					continue
				}
				report(n.Pos(), "append to "+obj.Name())
			}
			// Compound float accumulation: sum order changes the result.
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := n.Lhs[0]
				if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
					break // per-key accumulation into another map is order-free
				}
				t := pkg.Info.TypeOf(lhs)
				if t == nil || !isFloat(t) {
					break
				}
				obj := rootObject(pkg.Info, lhs)
				if obj == nil || definedWithin(obj, body) {
					break
				}
				report(n.Pos(), "float accumulation into "+obj.Name())
			}
		case *ast.CallExpr:
			fn := funcOf(pkg.Info, n)
			if fn != nil && outputFuncs[fn.Name()] {
				report(n.Pos(), "ordered output via "+fn.Name())
			}
		}
		return true
	})
	return diags
}

// sortedObjects collects objects passed (anywhere in their expression
// tree) to a sort or slices ordering call within the function: the
// collect-then-sort idiom's evidence.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcOf(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// rootObject resolves the object an assignment target ultimately names:
// the identifier itself, or the field of a selector chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	case *ast.StarExpr:
		return rootObject(info, e.X)
	}
	return nil
}

// definedWithin reports whether obj is declared inside the given block
// (loop-local state cannot leak iteration order).
func definedWithin(obj types.Object, block *ast.BlockStmt) bool {
	return obj.Pos() >= block.Pos() && obj.Pos() <= block.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

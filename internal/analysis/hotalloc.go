package analysis

// hotalloc is the source-level half of the 0 allocs/op gate: check.sh
// pins BenchmarkHandleInvoke at zero allocations, but a benchmark only
// reports the regression — it cannot name the line that caused it, and
// it only covers the one path the benchmark drives. hotalloc turns the
// contract into a directive:
//
//	//lint:hotpath
//	func (s *Server) handleInvoke(...) { ... }
//
// Every function so marked, and everything it reaches through
// statically resolved calls, must contain no allocating constructs:
//
//   - map and slice composite literals, make, new, &T{} literals;
//   - function literals (closure allocation + capture);
//   - any call into package fmt;
//   - non-constant string concatenation (+ / += on strings);
//   - append to a base that is provably zero-capacity on every call
//     (nil, `var x []T`, or an empty literal built in the same body —
//     appends to parameters and pooled buffers amortize and are
//     allowed);
//   - interface boxing at go/types-visible sites: a non-pointer-shaped,
//     non-constant concrete value passed to an interface parameter,
//     returned as an interface result, or explicitly converted
//     (pointers, maps, chans and funcs live in the iface word and do
//     not allocate; interface-to-interface passes are free);
//   - variadic calls that materialize an argument slice.
//
// `//lint:coldpath` on a callee stops the descent and exempts its call
// sites from the variadic/boxing checks — the declared slow path
// (error responses, first-touch construction) may allocate. Placing
// either directive on anything but a function declaration is itself a
// diagnostic. Calls through interfaces or function values are not
// followed (documented approximation — the benchmark gate still backs
// this check at runtime).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAllocAnalyzer implements the hotalloc check.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //lint:hotpath and everything they reach must not allocate",
	Run:  runHotAlloc,
}

const (
	hotpathDirective  = "lint:hotpath"
	coldpathDirective = "lint:coldpath"
)

func runHotAlloc(ix *funcIndex) []Diagnostic {
	var diags []Diagnostic

	// Directive collection: hotpath seeds, coldpath stops, misuse.
	var seeds []*types.Func
	cold := map[*types.Func]bool{}
	docGroups := map[*ast.CommentGroup]bool{}
	for _, pkg := range ix.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				docGroups[fd.Doc] = true
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				switch pathDirective(fd.Doc) {
				case hotpathDirective:
					if ix.decls[fn] != nil {
						seeds = append(seeds, fn)
					}
				case coldpathDirective:
					cold[fn] = true
				}
			}
			for _, group := range f.Comments {
				if docGroups[group] {
					continue
				}
				for _, c := range group.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if strings.HasPrefix(text, hotpathDirective) || strings.HasPrefix(text, coldpathDirective) {
						name, _, _ := strings.Cut(text, " ")
						diags = append(diags, ix.diag("hotalloc", c.Pos(),
							"//"+name+" applies only to function declarations; move the directive onto the func it gates"))
					}
				}
			}
		}
	}

	// Reachability: BFS from the hotpath seeds, stopping at coldpath.
	seedOf := map[*types.Func]*types.Func{} // reached fn → its hotpath seed
	for _, fn := range seeds {
		seedOf[fn] = fn
	}
	for work := seeds; len(work) > 0; work = work[1:] {
		fn := work[0]
		for _, cs := range ix.decls[fn].calls {
			callee := cs.callee.Origin()
			if _, seen := seedOf[callee]; !seen && !cold[callee] && ix.decls[callee] != nil {
				seedOf[callee] = seedOf[fn]
				work = append(work, callee)
			}
		}
	}

	// Per reached function: scan the body for allocating constructs.
	for fn, seed := range seedOf {
		diags = append(diags, scanHotBody(ix, ix.decls[fn], seed, cold)...)
	}
	return diags
}

// pathDirective returns the hot/cold directive found in a doc group,
// or "".
func pathDirective(doc *ast.CommentGroup) string {
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		name, _, _ := strings.Cut(text, " ")
		if name == hotpathDirective || name == coldpathDirective {
			return name
		}
	}
	return ""
}

// hotRootSuffix renders the "reachable from" tail of every finding.
func hotRootSuffix(seed *types.Func) string {
	return " on the //lint:hotpath path through " + shortFuncName(seed.FullName()) +
		"; hoist the allocation out of the request path or mark a //lint:coldpath boundary"
}

// scanHotBody flags the allocating constructs in one hot function body.
// Function literals are themselves findings (closure allocation), and
// their bodies are not scanned further — the closure runs later, under
// its own profile.
func scanHotBody(ix *funcIndex, r *funcRoot, seed *types.Func, cold map[*types.Func]bool) []Diagnostic {
	pkg := r.pkg
	var diags []Diagnostic
	report := func(pos token.Pos, what string) {
		diags = append(diags, ix.diag("hotalloc", pos, what+" allocates"+hotRootSuffix(seed)))
	}
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal")
			return false
		case *ast.CompositeLit:
			switch pkg.Info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal")
			case *types.Slice:
				report(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n) && !isConstExpr(pkg, n) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			scanHotCall(pkg, r.alias, n, cold, report)
		}
		return true
	})
	return diags
}

// scanHotCall applies the call-shaped checks: builtins, fmt, variadic
// argument slices, and interface boxing of arguments.
func scanHotCall(pkg *Package, am *aliasMap, call *ast.CallExpr, cold map[*types.Func]bool, report func(token.Pos, string)) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			case "append":
				if len(call.Args) > 0 && zeroCapBase(pkg, am, call.Args[0]) {
					report(call.Pos(), "append to a zero-capacity base")
				}
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion: flag concrete→interface boxing.
		if len(call.Args) == 1 && boxes(pkg, tv.Type, call.Args[0]) {
			report(call.Pos(), "interface conversion of "+types.ExprString(call.Args[0]))
		}
		return
	}
	fn := funcOf(pkg.Info, call)
	if fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call.Pos(), "call to fmt."+fn.Name())
			return
		}
		if cold[fn.Origin()] {
			return // declared slow path: its call site may box/variadic
		}
	}
	sig, _ := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		// A bare variadic call with at least one variadic argument
		// materializes the argument slice.
		report(call.Pos(), "variadic call (argument slice)")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || !sig.Variadic():
			if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			}
		case call.Ellipsis.IsValid():
			pt = sig.Params().At(sig.Params().Len() - 1).Type()
		default:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt != nil && boxes(pkg, pt, arg) {
			report(arg.Pos(), "interface boxing of "+types.ExprString(arg))
		}
	}
}

// isStringExpr reports whether e has string type.
func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether e folds to a compile-time constant.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// zeroCapBase reports whether the append base is provably zero-capacity
// on every call: a nil literal, an empty composite literal, or a local
// whose every alias source is one of those (parameters and pooled
// buffers stay Unknown and are allowed — they amortize).
func zeroCapBase(pkg *Package, am *aliasMap, e ast.Expr) bool {
	e = unwrapAlias(e)
	switch e := e.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := identObj(pkg.Info, e)
		return obj != nil && am.everySource(obj, func(src ast.Expr) bool {
			lit, ok := unwrapAlias(src).(*ast.CompositeLit)
			return ok && len(lit.Elts) == 0
		})
	}
	return false
}

// boxes reports whether passing arg as target type performs an
// allocating interface conversion: target is an interface, arg's
// concrete type is not pointer-shaped, and arg is not a constant.
func boxes(pkg *Package, target types.Type, arg ast.Expr) bool {
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return false // constants and nil are boxed statically
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); ok {
		return false // interface→interface: no allocation
	}
	return !pointerShaped(tv.Type)
}

// pointerShaped reports whether values of t live directly in an
// interface word (no allocation on conversion).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

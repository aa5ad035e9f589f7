package analysis

// index.go is the engine every analyzer reads: one function index,
// built once per run before the analyzers fan out, so nothing is rebuilt
// per analyzer and nothing is built lazily while they run concurrently.
//
// A root is a declared function body or a function literal inside one.
// A closure runs later, under a different dynamic context, so it is its
// own root with its own facts, never inlined into its definition site.
// Each root carries its CFG, its alias map, and its statically resolved
// call sites. Calls through interfaces, function-typed variables and
// closures stay unresolved; the analyzers built on the call graph
// document that approximation.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// callSite is one statically resolved call inside a root.
type callSite struct {
	call   *ast.CallExpr
	callee *types.Func
}

// funcRoot is one analysis root.
type funcRoot struct {
	pkg   *Package
	fn    *types.Func // nil for a function literal
	typ   *ast.FuncType
	body  *ast.BlockStmt
	cfg   *CFG
	alias *aliasMap
	calls []callSite // in syntactic order, excluding nested literals
}

// funcIndex is the unit plus everything derived from it once.
type funcIndex struct {
	*Unit
	// roots lists every declared function in file order, each followed
	// by the literals inside it.
	roots []*funcRoot
	decls map[*types.Func]*funcRoot
	lits  map[*ast.FuncLit]*funcRoot
	// closes maps each channel object (field or variable) to the
	// module's static close(...) sites on it, in file order.
	closes map[types.Object][]token.Pos
	// visible is every loaded package followed by everything they
	// import, for resolving contract rows that name imported types.
	visible []*types.Package
}

func newFuncIndex(u *Unit) *funcIndex {
	ix := &funcIndex{
		Unit:   u,
		decls:  map[*types.Func]*funcRoot{},
		lits:   map[*ast.FuncLit]*funcRoot{},
		closes: map[types.Object][]token.Pos{},
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range u.Pkgs {
		seen[pkg.Types] = true
		ix.visible = append(ix.visible, pkg.Types)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if r := ix.addRoot(pkg, fn, fd.Type, fd.Body); fn != nil {
						ix.decls[fn] = r
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pkg.Info, call, "close") && len(call.Args) == 1 {
					if obj := chanTargetObj(pkg, call.Args[0]); obj != nil {
						ix.closes[obj] = append(ix.closes[obj], call.Pos())
					}
				}
				return true
			})
		}
	}
	for i := 0; i < len(ix.visible); i++ {
		for _, imp := range ix.visible[i].Imports() {
			if !seen[imp] {
				seen[imp] = true
				ix.visible = append(ix.visible, imp)
			}
		}
	}
	return ix
}

func (ix *funcIndex) addRoot(pkg *Package, fn *types.Func, typ *ast.FuncType, body *ast.BlockStmt) *funcRoot {
	r := &funcRoot{pkg: pkg, fn: fn, typ: typ, body: body, cfg: BuildCFG(body), alias: buildAliasMap(pkg.Info, body)}
	each(body, func(call *ast.CallExpr) {
		if callee := funcOf(pkg.Info, call); callee != nil {
			r.calls = append(r.calls, callSite{call, callee})
		}
	})
	ix.roots = append(ix.roots, r)
	for _, lit := range r.cfg.FuncLits {
		ix.lits[lit] = ix.addRoot(pkg, nil, lit.Type, lit.Body)
	}
	return r
}

// fixpoint re-runs step over every declared function, in file order,
// until a whole pass changes nothing. It computes the call-graph
// summaries: transitive lock acquisitions and notifications,
// container-mutating parameters, and fresh-container returners.
func (ix *funcIndex) fixpoint(step func(r *funcRoot) (changed bool)) {
	for changed := true; changed; {
		changed = false
		for _, r := range ix.roots {
			if r.fn != nil && step(r) {
				changed = true
			}
		}
	}
}

func (ix *funcIndex) diag(analyzer string, pos token.Pos, msg string) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: ix.Fset.Position(pos), Message: msg}
}

// each visits the nodes of type T under n in syntactic order without
// entering function literals, which are roots of their own.
func each[T ast.Node](n ast.Node, visit func(T)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if t, ok := m.(T); ok {
			visit(t)
		}
		return true
	})
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// chanTargetObj resolves a channel expression (possibly an element of a
// slice/map of channels) to the field or variable object it lives in.
func chanTargetObj(pkg *Package, e ast.Expr) types.Object {
	e = unwrapAlias(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = unwrapAlias(idx.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return obj
		}
		if obj, ok := pkg.Info.Defs[e].(*types.Var); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

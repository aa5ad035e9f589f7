package analysis

// contract.go binds the contract tables of invariants.go
// (SnapshotContracts, PoolContracts, ChannelContracts) to the
// type-checked tree, for every table through one resolver with one kind
// of stale-row diagnostic: a renamed field, pool variable or function
// makes its row stale, and a stale row is reported instead of silently
// switching its rule off.

import (
	"go/ast"
	"go/types"
	"strings"
)

// resolveRow binds one table row. find returns the objects the row names
// in one package, or nil when any of them is missing there. The row is
// looked up in every visible package under home (nil means every
// package): the loaded ones and the packages they import. A row with no
// visible package under home is skipped, since corpus runs load parts of
// the tree; a row whose packages are present but resolve nothing is
// stale, and the analyzer reports it.
func (ix *funcIndex) resolveRow(analyzer, table, name string, home []string, find func(*types.Package) []types.Object) ([]types.Object, []Diagnostic) {
	var objs []types.Object
	present := false
	for _, p := range ix.visible {
		if inScope(p.Path(), home) {
			present = true
			objs = append(objs, find(p)...)
		}
	}
	if !present || len(objs) > 0 {
		return objs, nil
	}
	where := "the module"
	if len(home) > 0 {
		where = strings.Join(home, ", ")
	}
	anchor := ix.Pkgs[0].Files[0].Pos() // the row's home may only be imported
	for _, pkg := range ix.Pkgs {
		if inScope(pkg.Path, home) {
			anchor = pkg.Files[0].Pos()
			break
		}
	}
	return nil, []Diagnostic{ix.diag(analyzer, anchor, "stale "+table+": "+name+" does not resolve in "+
		where+"; update or remove the table entry")}
}

// lookupType returns the type declared as name in p's scope, or nil.
func lookupType(p *types.Package, name string) *types.TypeName {
	tn, _ := p.Scope().Lookup(name).(*types.TypeName)
	return tn
}

// lookupField returns field of the struct type typ declared in p, or nil.
func lookupField(p *types.Package, typ, field string) types.Object {
	if tn := lookupType(p, typ); tn != nil {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == field {
					return f
				}
			}
		}
	}
	return nil
}

// lookupMethod returns the method "Recv.Name" declared in p, or nil.
func lookupMethod(p *types.Package, recvDotName string) *types.Func {
	recv, name, _ := strings.Cut(recvDotName, ".")
	if tn := lookupType(p, recv); tn != nil {
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == name {
					return m
				}
			}
		}
	}
	return nil
}

// lookupLocals returns every variable named name, of a type accepted by
// keep, defined in the body of fn ("Func" or "Recv.Method") in p,
// including inside its function literals.
func (ix *funcIndex) lookupLocals(p *types.Package, fn, name string, keep func(types.Type) bool) []types.Object {
	recv, fname := "", fn
	if r, n, ok := strings.Cut(fn, "."); ok {
		recv, fname = r, n
	}
	var objs []types.Object
	for _, r := range ix.roots {
		if r.fn == nil || r.fn.Pkg() != p || r.fn.Name() != fname || recvName(r.fn) != recv {
			continue
		}
		ast.Inspect(r.body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				if obj, ok := r.pkg.Info.Defs[id].(*types.Var); ok && keep(obj.Type()) {
					objs = append(objs, obj)
				}
			}
			return true
		})
	}
	return objs
}

// recvName returns the base type name of fn's receiver, or "".
func recvName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name()
	}
	return ""
}

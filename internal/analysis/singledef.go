package analysis

// singledef enforces the invariants.go tables: each listed declaration
// exists exactly once in the module, in its home file, and the
// forbidden private policy names never reappear outside their allowed
// package. This is the compiler-grade replacement for check.sh's grep
// guards.

import (
	"go/ast"
	"go/token"
)

// SingleDefAnalyzer implements the singledef check.
var SingleDefAnalyzer = &Analyzer{
	Name: "singledef",
	Doc:  "enforce single-definition and forbidden-declaration invariants",
	Run:  runSingleDef,
}

// topDecl is one top-level declaration occurrence.
type topDecl struct {
	kind DeclKind
	recv string
	name string
	pkg  *Package
	file string
	pos  token.Pos
}

func runSingleDef(ix *funcIndex) []Diagnostic {
	invariants := ix.Invariants
	if invariants == nil {
		invariants = SingleDefs
	}
	forbidden := ix.Forbidden
	if forbidden == nil {
		forbidden = ForbiddenDecls
	}

	var decls []topDecl
	for _, pkg := range ix.Pkgs {
		for _, f := range pkg.Files {
			file := ix.Fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					kind, recv := KindFunc, ""
					if d.Recv != nil && len(d.Recv.List) > 0 {
						kind = KindMethod
						recv = recvBaseName(d.Recv.List[0].Type)
					}
					decls = append(decls, topDecl{kind, recv, d.Name.Name, pkg, file, d.Pos()})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls = append(decls, topDecl{KindType, "", spec.Name.Name, pkg, file, spec.Pos()})
						case *ast.ValueSpec:
							if d.Tok != token.CONST {
								continue
							}
							for _, name := range spec.Names {
								decls = append(decls, topDecl{KindConst, "", name.Name, pkg, file, name.Pos()})
							}
						}
					}
				}
			}
		}
	}

	var diags []Diagnostic
	for _, inv := range invariants {
		var hits []topDecl
		for _, d := range decls {
			if d.kind == inv.Kind && d.name == inv.Name && (inv.Kind != KindMethod || d.recv == inv.Recv) {
				hits = append(hits, d)
			}
		}
		if len(hits) == 0 {
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      token.Position{Filename: inv.File},
				Message: inv.Kind.String() + " " + inv.DeclName() + " is not defined anywhere; expected in " +
					inv.File + " (" + inv.Why + ")",
			})
			continue
		}
		inHome := 0
		for _, h := range hits {
			if h.file == inv.File {
				inHome++
				continue
			}
			diags = append(diags, ix.diag("singledef", h.pos, inv.Kind.String()+" "+inv.DeclName()+
				" must be defined exactly once, in "+inv.File+" ("+inv.Why+")"))
		}
		if inHome > 1 {
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      token.Position{Filename: inv.File},
				Message:  inv.Kind.String() + " " + inv.DeclName() + " is declared more than once in " + inv.File,
			})
		}
	}

	for _, fd := range forbidden {
		for _, d := range decls {
			if d.kind != fd.Kind || d.name != fd.Name {
				continue
			}
			if inScope(d.pkg.Path, []string{fd.AllowedPkg}) {
				continue
			}
			diags = append(diags, ix.diag("singledef", d.pos, "forbidden "+fd.Kind.String()+" "+fd.Name+
				" outside "+fd.AllowedPkg+": "+fd.Why))
		}
	}
	return diags
}

// recvBaseName unwraps a receiver type expression to its base type name
// (handles pointers and generic instantiations like *Pool[T]).
func recvBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

package analysis

// wallclock forbids wall-clock reads and global math/rand in the
// deterministic packages. The §5.3 methodology runs the platform's real
// scheduling code against simulated machines, and PR 3 hardened that
// into a byte-identical guarantee (-parallel N output equals serial
// output); a single time.Now or shared rand stream reintroduces
// host-dependent results that no unit test reliably catches. All time
// must flow through simclock (or an injected clock), all randomness
// through seeded *rand.Rand sources. The banned calls are rows of the
// ForbiddenCalls table (invariants.go), shared with serverscan and
// ctxflow's root-context rule.

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// WallclockAnalyzer implements the wallclock check.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time and global math/rand in deterministic packages",
	Run:  func(ix *funcIndex) []Diagnostic { return forbiddenCalls(ix, "wallclock", nil) },
}

// forbiddenCalls reports every call that one of analyzer's
// ForbiddenCalls rows bans, walking whole files so package-level
// initializers and function literals are covered too. Calls in skip were
// already reported by the analyzer in a more specific form.
func forbiddenCalls(ix *funcIndex, analyzer string, skip map[*ast.CallExpr]bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range ix.Pkgs {
		var rows []*ForbiddenCall
		for i, row := range ForbiddenCalls {
			if row.Analyzer == analyzer && inScope(pkg.Path, row.Scope) {
				rows = append(rows, &ForbiddenCalls[i])
			}
		}
		if len(rows) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || skip[call] {
					return true
				}
				if fn := funcOf(pkg.Info, call); fn != nil {
					for _, row := range rows {
						if row.bans(fn) {
							msg := strings.NewReplacer("{func}", fn.Name(), "{pkg}", pkg.Path).Replace(row.Message)
							diags = append(diags, ix.diag(analyzer, call.Pos(), msg))
							break
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// bans reports whether the row forbids calling fn.
func (row *ForbiddenCall) bans(fn *types.Func) bool {
	if fn.Pkg() == nil || !pkgMatches(fn.Pkg().Path(), row.Pkg) {
		return false
	}
	recv := ""
	if named := recvNamed(fn); named != nil {
		recv = named.Obj().Name()
	}
	if recv != row.Recv {
		return false
	}
	if row.Funcs != nil {
		return slices.Contains(row.Funcs, fn.Name())
	}
	return !slices.Contains(row.Except, fn.Name())
}

// pkgMatches reports whether path is pattern itself or ends in
// "/"+pattern (module packages are named by their module-relative path).
func pkgMatches(path, pattern string) bool {
	return path == pattern || strings.HasSuffix(path, "/"+pattern)
}

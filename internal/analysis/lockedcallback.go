package analysis

// lockedcallback checks that runtime.Observer callbacks and exported
// telemetry Collector methods are never invoked while a mutex is held in
// the gateway, telemetry and core packages. Observers are arbitrary user
// code and Collector entry points take their own locks; calling either
// while holding a lock is the deadlock/reentrancy hazard class the race
// detector cannot see (it needs an actual interleaving; this needs only
// the call graph shape). The gateway's discipline is snapshot-under-lock,
// notify-after — this analyzer keeps it that way.
//
// The held set is lockorder's flow-sensitive lock transfer: a lock
// released on one branch is still held on the others, and a deferred
// Unlock holds it to the end of the function. A call to a same-package
// helper that notifies, directly or through further same-package
// helpers, counts as notifying. Function literals are separate roots: a
// closure runs later, when the enclosing lock is no longer
// (necessarily) held, and deferred calls run at exit.

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// lockedCallbackScopes is where the discipline applies: the gateway
// (whose table publish path holds tbl.mu while the registry and plan
// are touched), the telemetry collector, and the copy-on-write registry
// in internal/core.
var lockedCallbackScopes = []string{"internal/gateway", "internal/telemetry", "internal/core"}

// LockedCallbackAnalyzer implements the lockedcallback check.
var LockedCallbackAnalyzer = &Analyzer{
	Name: "lockedcallback",
	Doc:  "forbid Observer/Collector calls while holding a mutex in gateway and telemetry",
	Run:  runLockedCallback,
}

func runLockedCallback(ix *funcIndex) []Diagnostic {
	// notifies maps each function that reaches a callback through
	// same-package calls to the callback it reaches first.
	notifies := map[*types.Func]string{}
	ix.fixpoint(func(r *funcRoot) bool {
		if notifies[r.fn] != "" {
			return false
		}
		for _, cs := range r.calls {
			if target := notifyTarget(r.fn.Pkg(), cs.callee, notifies); target != "" {
				notifies[r.fn] = target
				return true
			}
		}
		return false
	})

	var diags []Diagnostic
	for _, r := range ix.roots {
		if !inScope(r.pkg.Path, lockedCallbackScopes) {
			continue
		}
		info := r.pkg.Info
		fx := lockFacts(info)
		VisitWithFacts(r.cfg, Forward(r.cfg, locks{}, fx), fx, func(f locks, n ast.Node) {
			if _, ok := n.(*ast.DeferStmt); ok {
				return
			}
			each(n, func(call *ast.CallExpr) {
				f = lockStep(info, f, call, false)
				fn := funcOf(info, call)
				if fn == nil || len(f) == 0 {
					return
				}
				target := notifyTarget(r.pkg.Types, fn, notifies)
				if target == "" {
					return
				}
				if callbackTarget(fn) == "" {
					target += " invoked via call to " + shortFuncName(fn.FullName())
				} else {
					target += " invoked"
				}
				held := oneHeld(f)
				diags = append(diags, ix.diag("lockedcallback", call.Pos(), target+" while "+held.path+
					" is held (locked at line "+strconv.Itoa(ix.Fset.Position(held.pos).Line)+
					"); release the lock before notifying observers or telemetry"))
			})
		})
	}
	return diags
}

// notifyTarget returns the callback that calling fn from package pkg
// invokes: fn itself, or the one a same-package helper reaches.
func notifyTarget(pkg *types.Package, fn *types.Func, notifies map[*types.Func]string) string {
	if target := callbackTarget(fn); target != "" {
		return target
	}
	if fn.Pkg() == pkg {
		return notifies[fn.Origin()]
	}
	return ""
}

// callbackTarget reports whether fn is an observer/telemetry entry
// point: any method of runtime.Observer / runtime.Observers, or an
// exported method of telemetry.Collector.
func callbackTarget(fn *types.Func) string {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	obj := named.Obj()
	path := obj.Pkg().Path()
	switch {
	case strings.HasSuffix(path, "internal/runtime") && (obj.Name() == "Observer" || obj.Name() == "Observers"):
		return "runtime." + obj.Name() + "." + fn.Name()
	case strings.HasSuffix(path, "internal/telemetry") && obj.Name() == "Collector" && fn.Exported():
		return "telemetry.Collector." + fn.Name()
	}
	return ""
}

// oneHeld picks the report's representative held mutex
// deterministically (lowest path) — one report per call is enough.
func oneHeld(f locks) heldLock {
	var best heldLock
	for _, h := range f {
		if best.path == "" || h.path < best.path {
			best = h
		}
	}
	return best
}

package analysis

// lockorder is a whole-program, flow-sensitive deadlock check: it
// records every mutex acquisition made while other mutexes are held —
// across branches, loops, defers, and (statically resolved) calls — and
// reports any cycle in the resulting lock-order graph. The race
// detector cannot see this hazard class (it needs an actual inverted
// interleaving at runtime); the lock graph needs only the shape of the
// code. The focus is the control plane's locking discipline:
// gateway.function.mu → gateway.Server.clMu is the dominant order on
// the scale-out path, and the telemetry collector's mu/rmu/funcStats.mu
// must stay leaves under it.
//
// Mechanics: per root, the lock-held transfer defined here (and shared
// with lockedcallback and atomicsnapshot) tracks the may-held set; at
// every Lock/RLock the analyzer adds held→new edges, and at every
// statically resolved call it adds held→acquires(g) edges, where
// acquires(g) is the transitive set of locks g can take (the index's
// call-graph fixpoint). Lock identity is the
// declared mutex object — the struct field for `s.mu`-style locks, so
// every instance of a type shares one graph node — and `defer
// mu.Unlock()` keeps the lock held to function exit. Known
// approximations: function literals are separate roots with an empty
// held set (they run later); calls through interfaces or function
// values are unresolved (lockedcallback independently bans observer
// fan-out under a lock); and instances of the same type share a node,
// so a genuine two-instance handoff of the same field would need a
// suppression.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LockOrderAnalyzer implements the lockorder check.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "report mutex acquisition cycles (potential deadlocks) over the whole program",
	Run:  runLockOrder,
}

// heldLock is one held mutex: where it was acquired and the code's path
// to it ("s.mu").
type heldLock struct {
	pos  token.Pos
	path string
}

// locks is the lock-held fact shared by lockorder, lockedcallback and
// atomicsnapshot, keyed by the declared mutex object: the struct field
// for `s.mu`-style locks, so every instance of a type shares one key, or
// the variable for a bare identifier.
type locks = set[types.Object, heldLock]

// mutexCall classifies call as a Lock/RLock (lock) or Unlock/RUnlock of
// a sync mutex whose declared object resolves.
func mutexCall(info *types.Info, call *ast.CallExpr) (obj types.Object, path string, lock, ok bool) {
	fn := funcOf(info, call)
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if fn == nil || !isSel {
		return nil, "", false, false
	}
	if named := recvNamed(fn); named == nil || (!isNamedType(named, "sync", "Mutex") && !isNamedType(named, "sync", "RWMutex")) {
		return nil, "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return nil, "", false, false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		if s, found := info.Selections[x]; found {
			obj = s.Obj()
		}
	case *ast.Ident:
		obj = info.Uses[x]
	}
	return obj, types.ExprString(sel.X), lock, obj != nil
}

// lockStep applies one call to the lock-held fact: a lock adds its
// mutex, an unlock removes it unless deferred (`defer mu.Unlock()` keeps
// the lock held to function exit).
func lockStep(info *types.Info, f locks, call *ast.CallExpr, deferred bool) locks {
	switch obj, path, lock, ok := mutexCall(info, call); {
	case ok && lock:
		return f.with(obj, heldLock{call.Pos(), path})
	case ok && !deferred:
		return f.without(obj)
	}
	return f
}

// eachCall visits the calls of one CFG node in syntactic order, telling
// whether they belong to a defer statement's deferred call.
func eachCall(n ast.Node, visit func(call *ast.CallExpr, deferred bool)) {
	d, deferred := n.(*ast.DeferStmt)
	if deferred {
		n = d.Call
	}
	each(n, func(call *ast.CallExpr) { visit(call, deferred) })
}

// lockFacts is the "may be held" analysis of lockorder and
// lockedcallback. atomicsnapshot applies lockStep under the must join
// instead: its writer mutex must be held on every path.
func lockFacts(info *types.Info) Facts[locks] {
	return setFacts(mayJoin, func(f locks, n ast.Node) locks {
		eachCall(n, func(call *ast.CallExpr, deferred bool) { f = lockStep(info, f, call, deferred) })
		return f
	})
}

// lockEdge is one observed "to acquired while from is held" site.
type lockEdge struct {
	pos token.Pos
	via string // callee name when the acquisition is inside a call, else ""
}

// lockGraph accumulates edges and display names keyed by the mutex's
// declared object.
type lockGraph struct {
	names map[types.Object]string
	edges map[types.Object]map[types.Object][]lockEdge
}

func (g *lockGraph) addEdge(from, to types.Object, e lockEdge) {
	if g.edges[from] == nil {
		g.edges[from] = map[types.Object][]lockEdge{}
	}
	g.edges[from][to] = append(g.edges[from][to], e)
}

// name registers the display name of a locked mutex on first sight:
// "pkg.Type.field" for a field, "pkg.var" for a variable.
func (g *lockGraph) name(info *types.Info, call *ast.CallExpr, obj types.Object) {
	if _, named := g.names[obj]; named {
		return
	}
	if x, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.SelectorExpr); ok {
		g.names[obj] = fieldName(info.Selections[x].Recv(), obj, true)
	} else if obj.Pkg() != nil {
		g.names[obj] = obj.Pkg().Name() + "." + obj.Name()
	} else {
		g.names[obj] = obj.Name()
	}
}

// fieldName renders "Type.field" for a field selected on a value of
// type recv, prefixed with the package name when qualified.
func fieldName(recv types.Type, field types.Object, qualified bool) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok {
		return field.Name()
	}
	name := n.Obj().Name() + "." + field.Name()
	if qualified && n.Obj().Pkg() != nil {
		name = n.Obj().Pkg().Name() + "." + name
	}
	return name
}

func runLockOrder(ix *funcIndex) []Diagnostic {
	graph := &lockGraph{
		names: map[types.Object]string{},
		edges: map[types.Object]map[types.Object][]lockEdge{},
	}

	// Transitive acquires-sets per declared function.
	acquires := map[*types.Func]map[types.Object]bool{}
	ix.fixpoint(func(r *funcRoot) bool {
		set := acquires[r.fn]
		if set == nil {
			set = map[types.Object]bool{}
			acquires[r.fn] = set
		}
		before := len(set)
		for _, cs := range r.calls {
			if obj, _, lock, ok := mutexCall(r.pkg.Info, cs.call); ok && lock {
				graph.name(r.pkg.Info, cs.call, obj)
				set[obj] = true
			}
			for obj := range acquires[cs.callee] {
				set[obj] = true
			}
		}
		return len(set) > before
	})

	// Flow-sensitive held-set analysis of every root, recording edges.
	for _, r := range ix.roots {
		info := r.pkg.Info
		fx := lockFacts(info)
		VisitWithFacts(r.cfg, Forward(r.cfg, locks{}, fx), fx, func(f locks, n ast.Node) {
			eachCall(n, func(call *ast.CallExpr, deferred bool) {
				if obj, _, lock, ok := mutexCall(info, call); ok {
					if lock {
						graph.name(info, call, obj)
						for held := range f {
							graph.addEdge(held, obj, lockEdge{pos: call.Pos()})
						}
					}
					f = lockStep(info, f, call, deferred)
					return
				}
				fn := funcOf(info, call)
				if fn == nil || len(f) == 0 {
					return
				}
				for obj := range acquires[fn] {
					for held := range f {
						graph.addEdge(held, obj, lockEdge{pos: call.Pos(), via: fn.FullName()})
					}
				}
			})
		})
	}
	return lockCycles(ix, graph)
}

// lockCycles finds strongly connected components of the lock graph and
// reports the edges that close a cycle: for a two-lock inversion the
// minority direction is reported against the dominant one; self-edges
// (re-acquiring a held mutex) and larger cycles report every
// participating edge.
func lockCycles(ix *funcIndex, g *lockGraph) []Diagnostic {
	var diags []Diagnostic

	// Self-edges first: acquiring a lock already held can self-deadlock
	// regardless of any other lock.
	for from, tos := range g.edges {
		for to, sites := range tos {
			if from != to {
				continue
			}
			for _, s := range sites {
				diags = append(diags, ix.diag("lockorder", s.pos, g.names[from]+" acquired while already held"+
					viaSuffix(s)+"; sync mutexes are not reentrant"))
			}
		}
	}

	comp := sccOf(g)
	for from, tos := range g.edges {
		for to, sites := range tos {
			if from == to || comp[from] != comp[to] {
				continue
			}
			// from→to participates in a cycle. Report the minority
			// direction of each pair once per site; on a tie both
			// directions are reported.
			reverse := len(g.edges[to][from])
			if len(sites) > reverse && reverse > 0 {
				continue // dominant direction of a 2-cycle
			}
			for _, s := range sites {
				msg := "lock order inversion: " + g.names[to] + " acquired while " + g.names[from] +
					" is held" + viaSuffix(s)
				if reverse > 0 {
					msg += "; the dominant order is " + g.names[to] + " before " + g.names[from] +
						" (" + strconv.Itoa(reverse) + " site(s))"
				} else {
					msg += "; this edge closes a lock-order cycle"
				}
				diags = append(diags, ix.diag("lockorder", s.pos, msg))
			}
		}
	}
	return diags
}

func viaSuffix(s lockEdge) string {
	if s.via == "" {
		return ""
	}
	return " (via call to " + shortFuncName(s.via) + ")"
}

// shortFuncName trims a FullName like
// "(*github.com/x/y/internal/gateway.Server).deploy" down to
// "(*gateway.Server).deploy".
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	prefix := ""
	if strings.HasPrefix(full, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(full, "(") {
		prefix = "("
	}
	return prefix + full[i+1:]
}

// sccOf computes strongly connected components (Tarjan) of the lock
// graph, returning a component id per node.
func sccOf(g *lockGraph) map[types.Object]int {
	index := map[types.Object]int{}
	low := map[types.Object]int{}
	onStack := map[types.Object]bool{}
	comp := map[types.Object]int{}
	var stack []types.Object
	next, ncomp := 0, 0

	var nodes []types.Object
	seen := map[types.Object]bool{}
	addNode := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			nodes = append(nodes, o)
		}
	}
	for from, tos := range g.edges {
		addNode(from)
		for to := range tos {
			addNode(to)
		}
	}

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range g.edges[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return comp
}

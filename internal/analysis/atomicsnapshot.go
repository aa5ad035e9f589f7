package analysis

// atomicsnapshot enforces the copy-on-write publication discipline that
// the gateway's lock-free dispatch path depends on (see
// internal/gateway/table.go): a container published through an
// atomic.Pointer is swapped whole, never mutated in place. The
// declarative side lives in SnapshotContracts (invariants.go); for each
// contracted field the analyzer checks three properties:
//
//   - Load side, may-analysis via the alias pass: any value reached
//     from `.Load()` — directly, through a local alias, a deref, or an
//     element whose own type is a container — is read-only. Map writes,
//     element stores, delete, append, copy-into, sort.*, and passing
//     the snapshot to a statically resolved callee that mutates the
//     corresponding parameter (transitive fixpoint over the call graph)
//     are all diagnostics.
//   - Store side, must-analysis over the CFG: the argument of every
//     `.Store(x)` must be a fresh container built on every path to the
//     store — make/new/composite literal, append to a fresh or nil
//     base, or a call to a function that provably returns a fresh
//     container on all its returns (fixpoint; this admits
//     Pool.Snapshot's `append([]I(nil), ...)` idiom).
//   - Writer exclusion: a Store must happen with the contract's writer
//     mutex held on every path (lockorder's lock transfer under the
//     must join, so a deferred Unlock keeps it held), unless the
//     receiver holding the pointer is itself a fresh, not-yet-published
//     object on that path. When the storing function takes
//     neither lock (the *Locked helper idiom), every statically
//     resolved caller must satisfy the same rule at its call site.
//
// An atomic.Pointer-published map or slice field with NO contract entry
// is itself a diagnostic at each Store: every publication point must
// declare its discipline. A row whose field or writer mutex no longer
// resolves is a stale-row diagnostic.
//
// Approximations, documented: calls through interfaces or function
// values are unresolved (a snapshot escaping through one is not seen);
// the caller check is one level deep; function literals are separate
// roots with empty held/fresh sets, so a Store inside a closure that
// runs under a caller-held lock needs a suppression.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicSnapshotAnalyzer implements the atomicsnapshot check.
var AtomicSnapshotAnalyzer = &Analyzer{
	Name: "atomicsnapshot",
	Doc:  "atomic.Pointer-published containers are read-only after Load and republished as fresh copies under the writer mutex",
	Run:  runAtomicSnapshot,
}

// snapContract is one resolved SnapshotContract row.
type snapContract struct {
	*SnapshotContract
	mutex types.Object // the writer-mutex field
}

func (c *snapContract) display() string { return c.Type + "." + c.Field }

// callerSite is one resolved call of a declared function.
type callerSite struct {
	root *funcRoot
	call *ast.CallExpr
}

func runAtomicSnapshot(ix *funcIndex) []Diagnostic {
	table := ix.Snapshots
	if table == nil {
		table = SnapshotContracts
	}
	var diags []Diagnostic
	contracts := map[types.Object]*snapContract{} // keyed by the atomic.Pointer field
	for i := range table {
		c := &table[i]
		objs, stale := ix.resolveRow("atomicsnapshot", "SnapshotContract", c.Type+"."+c.Field+" (writer mutex "+c.Mutex+")",
			[]string{c.Pkg}, func(p *types.Package) []types.Object {
				field, mutex := lookupField(p, c.Type, c.Field), lookupField(p, c.Type, c.Mutex)
				if field == nil || mutex == nil {
					return nil
				}
				return []types.Object{field, mutex}
			})
		diags = append(diags, stale...)
		for j := 0; j+1 < len(objs); j += 2 {
			contracts[objs[j]] = &snapContract{c, objs[j+1]}
		}
	}
	mut := mutatedParams(ix)
	fresh := freshReturners(ix)
	callers := map[*types.Func][]callerSite{}
	for _, r := range ix.roots {
		for _, cs := range r.calls {
			if callee := cs.callee.Origin(); r.fn != nil {
				callers[callee] = append(callers[callee], callerSite{r, cs.call})
			}
		}
	}
	for _, r := range ix.roots {
		diags = append(diags, checkSnapshotReads(ix, r, contracts, mut)...)
		diags = append(diags, checkSnapshotStores(ix, r, contracts, fresh, callers)...)
	}
	return diags
}

// atomicContainerCall matches a call of the form `<recv>.<field>.Load()`
// or `<recv>.<field>.Store(x)` where field has type atomic.Pointer[T]
// and T's underlying type is a map or slice, returning the field's
// selection and the method name.
func atomicContainerCall(info *types.Info, call *ast.CallExpr) (*types.Selection, string) {
	fn := funcOf(info, call)
	if fn == nil || (fn.Name() != "Load" && fn.Name() != "Store") {
		return nil, ""
	}
	if named := recvNamed(fn); named == nil || !isNamedType(named, "sync/atomic", "Pointer") {
		return nil, ""
	}
	fieldSel, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s, ok := info.Selections[fieldSel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, ""
	}
	ft, ok := s.Obj().Type().(*types.Named)
	if !ok || ft.TypeArgs() == nil || ft.TypeArgs().Len() != 1 {
		return nil, ""
	}
	switch ft.TypeArgs().At(0).Underlying().(type) {
	case *types.Map, *types.Slice:
		return s, fn.Name()
	}
	return nil, ""
}

// snapshotSource returns the contract whose Load() expression e is, or
// aliases, in root r; nil if none.
func snapshotSource(r *funcRoot, contracts map[types.Object]*snapContract, e ast.Expr) *snapContract {
	info := r.pkg.Info
	loaded := func(e ast.Expr) *snapContract {
		if call, ok := unwrapAlias(e).(*ast.CallExpr); ok {
			if s, method := atomicContainerCall(info, call); method == "Load" {
				return contracts[s.Obj()]
			}
		}
		return nil
	}
	if _, ok := unwrapAlias(e).(*ast.CallExpr); ok {
		return loaded(e)
	}
	obj := identObj(info, e)
	if obj == nil {
		return nil
	}
	container := isContainer(obj.Type())
	for _, src := range r.alias.Sources(obj) {
		// An element drawn out of a snapshot is only tainted when it is
		// itself a container sharing the published storage.
		if src.Expr != nil && (!src.Elem || container) {
			if c := loaded(src.Expr); c != nil {
				return c
			}
		}
	}
	return nil
}

func isContainer(t types.Type) bool {
	for {
		switch u := t.Underlying().(type) {
		case *types.Map, *types.Slice:
			return true
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
}

// checkSnapshotReads flags every mutation of a loaded snapshot in r.
func checkSnapshotReads(ix *funcIndex, r *funcRoot, contracts map[types.Object]*snapContract, mut map[*types.Func][]bool) []Diagnostic {
	var diags []Diagnostic
	containerWrites(r.pkg.Info, r.body, mut, func(at ast.Node, target ast.Expr, what string, callee *types.Func) {
		c := snapshotSource(r, contracts, target)
		switch {
		case c == nil:
		case callee != nil:
			diags = append(diags, ix.diag("atomicsnapshot", at.Pos(), "snapshot loaded from "+c.display()+
				" passed to "+shortFuncName(callee.FullName())+
				", which mutates that parameter; values reached from Load() are shared read-only"))
		default:
			diags = append(diags, ix.diag("atomicsnapshot", at.Pos(), what+" a snapshot loaded from "+c.display()+
				"; values reached from Load() are shared read-only — copy, mutate the copy, and Store the copy"))
		}
	})
	return diags
}

// containerWrites calls visit for every container mutation under n,
// function literals excluded: an index store, delete, append, copy-into
// or sort.* call on target, or target passed to a parameter that the
// callee mutates according to mut. at is the assignment or call; what
// names the mutation, and is "" when callee is set.
func containerWrites(info *types.Info, n ast.Node, mut map[*types.Func][]bool, visit func(at ast.Node, target ast.Expr, what string, callee *types.Func)) {
	each(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					visit(m, idx.X, "write into", nil)
				}
			}
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok && len(m.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if what := builtinWrites[b.Name()]; what != "" {
						visit(m, m.Args[0], what, nil)
					}
					return
				}
			}
			fn := funcOf(info, m)
			if fn == nil {
				return
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
				if sortFuncs[fn.Name()] && len(m.Args) > 0 {
					visit(m, m.Args[0], "sort", nil)
				}
				return
			}
			mutated := mut[fn.Origin()]
			for i, arg := range m.Args {
				if i < len(mutated) && mutated[i] {
					visit(m, arg, "", fn)
				}
			}
		}
	})
}

var builtinWrites = map[string]string{"delete": "delete from", "append": "append to", "copy": "copy into"}

var sortFuncs = map[string]bool{"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true}

// cowFact is the must-fact for the Store-side checks: the mutexes held
// on every path and the locals holding fresh, unpublished containers on
// every path.
type cowFact struct {
	held  locks
	fresh objSet
}

// cowFacts builds the must-analysis transfer for one root.
func cowFacts(info *types.Info, fresh map[*types.Func]bool) Facts[cowFact] {
	return Facts[cowFact]{
		Join: func(a, b cowFact) cowFact {
			return cowFact{mustJoin(a.held, b.held), mustJoin(a.fresh, b.fresh)}
		},
		Equal: func(a, b cowFact) bool { return sameKeys(a.held, b.held) && sameKeys(a.fresh, b.fresh) },
		Transfer: func(f cowFact, n ast.Node) cowFact {
			eachCall(n, func(call *ast.CallExpr, deferred bool) { f.held = lockStep(info, f.held, call, deferred) })
			mark := func(obj types.Object, fresh bool) {
				if fresh {
					f.fresh = f.fresh.with(obj, struct{}{})
				} else {
					f.fresh = f.fresh.without(obj)
				}
			}
			each(n, func(as *ast.AssignStmt) {
				for i, lhs := range as.Lhs {
					obj := identObj(info, lhs)
					switch id, isIdent := lhs.(*ast.Ident); {
					case obj == nil:
					case len(as.Lhs) != len(as.Rhs):
						mark(obj, false)
					case isIdent && id.Name != "_":
						mark(obj, f.freshExpr(info, fresh, as.Rhs[i]))
					}
				}
			})
			if ds, ok := n.(*ast.DeclStmt); ok {
				if gd, ok := ds.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for i, name := range vs.Names {
								if obj := info.Defs[name]; obj != nil &&
									(len(vs.Values) == 0 || (i < len(vs.Values) && f.freshExpr(info, fresh, vs.Values[i]))) {
									mark(obj, true)
								}
							}
						}
					}
				}
			}
			return f
		},
	}
}

// freshExpr reports whether e builds a container no other goroutine can
// reference yet, given the fresh locals of f.
func (f cowFact) freshExpr(info *types.Info, fresh map[*types.Func]bool, e ast.Expr) bool {
	return freshContainer(info, e, fresh, func(obj types.Object) bool { return f.fresh.has(obj) })
}

// heldOrFresh reports whether the writer mutex is held, or the object
// x names is itself fresh (not yet published) on this path.
func (f cowFact) heldOrFresh(info *types.Info, mutex types.Object, x ast.Expr) bool {
	obj := identObj(info, x)
	return f.held.has(mutex) || (obj != nil && f.fresh.has(obj))
}

// freshContainer is the fresh-container classifier: composite literals,
// make/new, append to a fresh base, conversions of fresh operands, calls
// to fresh returners, nil, and locals ident accepts.
func freshContainer(info *types.Info, e ast.Expr, fresh map[*types.Func]bool, ident func(types.Object) bool) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		if _, ok := e.X.(*ast.CompositeLit); ok {
			return true
		}
		obj := identObj(info, e.X)
		return obj != nil && ident(obj)
	case *ast.Ident:
		obj := identObj(info, e)
		return e.Name == "nil" || (obj != nil && ident(obj))
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make", "new":
					return true
				case "append":
					return len(e.Args) > 0 && freshContainer(info, e.Args[0], fresh, ident)
				}
				return false
			}
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			// Conversion: []I(nil), map...(fresh) — fresh iff the operand is.
			return freshContainer(info, e.Args[0], fresh, ident)
		}
		if fn := funcOf(info, e); fn != nil {
			return fresh[fn.Origin()]
		}
	}
	return false
}

// checkSnapshotStores verifies every contract-field Store in r: fresh
// argument, writer mutex (directly, via a fresh receiver, or at every
// caller), and a contract entry at all.
func checkSnapshotStores(ix *funcIndex, r *funcRoot, contracts map[types.Object]*snapContract,
	fresh map[*types.Func]bool, callers map[*types.Func][]callerSite) []Diagnostic {

	info := r.pkg.Info
	fx := cowFacts(info, fresh)
	var diags []Diagnostic
	VisitWithFacts(r.cfg, Forward(r.cfg, cowFact{}, fx), fx, func(f cowFact, n ast.Node) {
		each(n, func(call *ast.CallExpr) {
			s, method := atomicContainerCall(info, call)
			if method != "Store" {
				return
			}
			c := contracts[s.Obj()]
			if c == nil {
				diags = append(diags, ix.diag("atomicsnapshot", call.Pos(), "atomic.Pointer-published container "+
					fieldName(s.Recv(), s.Obj(), false)+" has no SnapshotContract entry; declare its writer mutex in invariants.go"))
				return
			}
			if len(call.Args) == 1 && !f.freshExpr(info, fresh, call.Args[0]) {
				diags = append(diags, ix.diag("atomicsnapshot", call.Pos(), c.display()+
					".Store argument is not a fresh container built on every path to this store; "+
					"copy-on-write publication requires a new copy per swap"))
			}
			// t.v.Store(...) with t fresh: the whole object is unpublished.
			owner := call.Fun.(*ast.SelectorExpr).X.(*ast.SelectorExpr).X
			if !f.heldOrFresh(info, c.mutex, owner) && (r.fn == nil || !callersHoldMutex(c, fresh, callers[r.fn.Origin()])) {
				diags = append(diags, ix.diag("atomicsnapshot", call.Pos(), c.display()+".Store without "+c.Type+"."+c.Mutex+
					" held on every path (here or in every caller); concurrent writers would interleave copy and swap"))
			}
		})
	})
	return diags
}

// callersHoldMutex checks, one level up the call graph, that every
// statically resolved caller either holds the contract mutex at the
// call site or invokes the function on a fresh receiver. No callers at
// all fails: an unexercised Store helper still needs its discipline
// pinned.
func callersHoldMutex(c *snapContract, fresh map[*types.Func]bool, sites []callerSite) bool {
	for _, site := range sites {
		info := site.root.pkg.Info
		fx := cowFacts(info, fresh)
		ok := false
		VisitWithFacts(site.root.cfg, Forward(site.root.cfg, cowFact{}, fx), fx, func(f cowFact, n ast.Node) {
			each(n, func(call *ast.CallExpr) {
				if call != site.call {
					return
				}
				recv := ast.Expr(nil)
				if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
					recv = sel.X
				}
				ok = ok || f.heldOrFresh(info, c.mutex, recv)
			})
		})
		if !ok {
			return false
		}
	}
	return len(sites) > 0
}

// mutatedParams computes, per declared function, which parameters the
// function may mutate as containers (containerWrites on the parameter,
// including passing it on to a callee's mutating parameter).
func mutatedParams(ix *funcIndex) map[*types.Func][]bool {
	out := map[*types.Func][]bool{}
	for _, r := range ix.roots {
		if r.fn != nil {
			out[r.fn] = make([]bool, r.fn.Type().(*types.Signature).Params().Len())
		}
	}
	ix.fixpoint(func(r *funcRoot) bool {
		changed := false
		params := r.fn.Type().(*types.Signature).Params()
		for i, done := range out[r.fn] {
			if !done && bodyMutatesObj(r, params.At(i), out) {
				out[r.fn][i] = true
				changed = true
			}
		}
		return changed
	})
	return out
}

// bodyMutatesObj reports whether r's body mutates obj as a container,
// given the current callee summaries.
func bodyMutatesObj(r *funcRoot, obj types.Object, summaries map[*types.Func][]bool) bool {
	found := false
	containerWrites(r.pkg.Info, r.body, summaries, func(_ ast.Node, target ast.Expr, _ string, _ *types.Func) {
		for {
			idx, ok := target.(*ast.IndexExpr)
			if !ok {
				break
			}
			target = idx.X
		}
		found = found || identObj(r.pkg.Info, target) == obj
	})
	return found
}

// freshReturners computes the set of declared functions whose every
// return value is a provably fresh container (fixpoint over the call
// graph). Pool.Snapshot's `append([]I(nil), p.members...)` is the
// motivating member.
func freshReturners(ix *funcIndex) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	ix.fixpoint(func(r *funcRoot) bool {
		if out[r.fn] || r.typ.Results == nil || r.typ.Results.NumFields() == 0 {
			return false
		}
		sawReturn, fresh := false, true
		each(r.body, func(ret *ast.ReturnStmt) {
			sawReturn = true
			fresh = fresh && len(ret.Results) > 0 // a bare return of named results is untracked
			for _, res := range ret.Results {
				fresh = fresh && freshContainer(r.pkg.Info, res, out, r.aliasFresh(out))
			}
		})
		out[r.fn] = sawReturn && fresh
		return out[r.fn]
	})
	return out
}

// aliasFresh is the alias-pass ident rule for freshContainer: every alias
// source of the local is a fresh construction. A self-referential definition (`x =
// append(x, ...)`) is fresh-neutral: it preserves whatever freshness the
// variable's other definitions establish, so a revisited object does not
// veto.
func (r *funcRoot) aliasFresh(summary map[*types.Func]bool) func(types.Object) bool {
	visited := map[types.Object]bool{}
	var ident func(obj types.Object) bool
	ident = func(obj types.Object) bool {
		if visited[obj] {
			return true
		}
		visited[obj] = true
		return r.alias.everySource(obj, func(src ast.Expr) bool { return freshContainer(r.pkg.Info, src, summary, ident) })
	}
	return ident
}

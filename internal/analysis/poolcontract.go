package analysis

// poolcontract enforces the pooled-object ownership disciplines
// declared in PoolContracts (invariants.go). Two contract shapes share
// the analyzer:
//
// PoolScheduled — the simclock shape (previously the dedicated
// pooledref analyzer): Event objects are recycled into a free list once
// they fire or a cancelled tombstone drains, so a stored pooled
// reference is only valid until its callback runs. Holders that keep
// events in struct fields must drop the reference when the callback
// fires and clear it at every Cancel site — otherwise a later Cancel
// through the stale pointer cancels an unrelated, recycled object.
// That bug class is invisible to tests (it needs pool reuse to line up)
// and to per-statement matching; it is exactly a dataflow property:
//
//   - an acquire-call result stored into a pooled-type struct field
//     must have a callback that re-assigns that field (normally to nil)
//     on EVERY path to the callback's exit (must-analysis);
//   - after `x.f.Cancel()` on a pooled field — directly or through a
//     local alias of the field (the alias pass resolves those) — SOME
//     path reaching function exit without re-assigning x.f is reported
//     (may-analysis);
//   - an acquire result stored into a slice/map-of-pooled struct field
//     is flagged unless the callback mutates that container.
//
// PoolSync — the sync.Pool shape: objects acquired by `Var.Get()` and
// recycled by `Var.Put(x)`, tracked per function body through the alias
// pass (an alias of a pooled value shares its state):
//
//   - use-after-recycle: any read of the value on a path where a Put
//     may already have run (may-analysis, union join);
//   - double-recycle: a Put on a path where a Put may already have run;
//   - escape: a live pooled value stored into a field/container or sent
//     on a channel leaks a reference the pool will hand to a stranger —
//     unless the contract declares TransferViaSend (the receiver is the
//     documented new owner). Returning a live value transfers ownership
//     to the caller, and writes INTO the pooled object are free.
//
// Approximations, by design: only direct `field = acquire(...)` stores
// with a function-literal callback are checked; sync-pool state is
// per-body (a helper that Gets and returns hands an untracked value to
// its caller); clearing through a helper function is not seen. Suppress
// with //lint:ignore poolcontract when a helper owns the discipline.
//
// Rows resolve through the shared contract resolver: a pool variable,
// pooled type or acquire method that no longer exists makes its row a
// stale-row diagnostic instead of silently switching the rule off.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolContractAnalyzer implements the poolcontract check.
var PoolContractAnalyzer = &Analyzer{
	Name: "poolcontract",
	Doc:  "pooled objects obey their declared ownership contract: no use-after-recycle, no double-recycle, no undeclared escapes",
	Run:  runPoolContract,
}

// schedPool is one resolved PoolScheduled row.
type schedPool struct {
	*PoolContract
	objs map[types.Object]bool // the pooled type name and the acquire methods
}

func runPoolContract(ix *funcIndex) []Diagnostic {
	table := ix.Pools
	if table == nil {
		table = PoolContracts
	}
	var diags []Diagnostic
	var scheduled []*schedPool
	syncVars := map[types.Object]*PoolContract{}
	for i := range table {
		c := &table[i]
		if c.Kind == PoolSync {
			objs, stale := ix.resolveRow("poolcontract", "PoolContract", c.PoolVar, c.Scope, func(p *types.Package) []types.Object {
				if obj, ok := p.Scope().Lookup(c.PoolVar).(*types.Var); ok && isNamedType(obj.Type(), "sync", "Pool") {
					return []types.Object{obj}
				}
				return nil
			})
			diags = append(diags, stale...)
			for _, obj := range objs {
				syncVars[obj] = c
			}
			continue
		}
		objs, stale := ix.resolveRow("poolcontract", "PoolContract", pooledPtrDisplay(c), []string{c.TypePkg}, func(p *types.Package) []types.Object {
			tn := lookupType(p, c.TypeName)
			if tn == nil {
				return nil
			}
			objs := []types.Object{tn}
			for _, name := range c.AcquireFuncs {
				m := lookupMethod(p, name)
				if m == nil {
					return nil
				}
				objs = append(objs, m)
			}
			return objs
		})
		diags = append(diags, stale...)
		if len(objs) > 0 {
			sp := &schedPool{c, map[types.Object]bool{}}
			for _, obj := range objs {
				sp.objs[obj] = true
			}
			scheduled = append(scheduled, sp)
		}
	}

	for _, r := range ix.roots {
		for _, c := range scheduled {
			if inScope(r.pkg.Path, c.Scope) {
				diags = append(diags, checkPooledStores(ix, r, c)...)
				diags = append(diags, checkCancelSites(ix, r, c)...)
			}
		}
		if len(syncVars) > 0 {
			diags = append(diags, sweepSyncPool(ix, r, syncVars)...)
		}
	}
	return diags
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// ---------------------------------------------------------------------
// PoolScheduled shape.

// pooledPtrDisplay renders the pooled pointer type, e.g. "*simclock.Event".
func pooledPtrDisplay(c *PoolContract) string {
	base := c.TypePkg
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	return "*" + base + "." + c.TypeName
}

// checkPooledStores finds `x.f = acquire(..., func(){...})` stores into
// pooled-type fields and verifies the callback clears the field on
// every path.
func checkPooledStores(ix *funcIndex, r *funcRoot, c *schedPool) []Diagnostic {
	info := r.pkg.Info
	var diags []Diagnostic
	each(r.body, func(as *ast.AssignStmt) {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !c.isAcquireCall(info, call) {
				continue
			}
			lit := callbackLit(call)
			// Scalar pooled-field store.
			if sel, ok := as.Lhs[i].(*ast.SelectorExpr); ok {
				if field, base, ok := c.pooledField(info, sel); ok {
					if lit != nil && !ix.callbackClearsField(info, lit, field) {
						diags = append(diags, ix.diag("poolcontract", as.Pos(), "callback of the event stored in "+
							base+"."+field.Name()+" does not clear the stored reference on every path; pooled events are recycled after firing — assign "+
							base+"."+field.Name()+" = nil in the callback"))
					}
					continue // a named callback is not statically matchable
				}
			}
			// Container store: x.f[k] = acquire(...).
			if idx, ok := as.Lhs[i].(*ast.IndexExpr); ok {
				diags = append(diags, checkContainerStore(ix, info, as, idx.X, lit, c)...)
			}
		}
		// append form: x.f = append(x.f, acquire(...)).
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "append") || len(call.Args) < 2 {
				continue
			}
			for _, arg := range call.Args[1:] {
				if inner, ok := arg.(*ast.CallExpr); ok && c.isAcquireCall(info, inner) {
					diags = append(diags, checkContainerStore(ix, info, as, as.Lhs[i], callbackLit(inner), c)...)
				}
			}
		}
	})
	return diags
}

// checkContainerStore flags acquire results retained in slice/map
// struct fields unless the callback visibly mutates the container.
func checkContainerStore(ix *funcIndex, info *types.Info, at ast.Node, container ast.Expr, lit *ast.FuncLit, c *schedPool) []Diagnostic {
	sel, ok := container.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	var elem types.Type
	switch t := s.Obj().Type().Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Map:
		elem = t.Elem()
	}
	field := s.Obj()
	if elem == nil || !c.isPooledPtr(elem) || (lit != nil && mutatesContainer(info, lit, field)) {
		return nil
	}
	return []Diagnostic{ix.diag("poolcontract", at.Pos(), pooledPtrDisplay(c.PoolContract)+
		" stored into long-lived container "+types.ExprString(sel.X)+"."+field.Name()+
		" with no clearing in the callback; recycled events make stale container entries cancel unrelated work — "+
		"remove the entry when the callback fires or use a scalar field")}
}

// cancelKey identifies one outstanding Cancel: the pooled field and the
// textual base path it was cancelled through.
type cancelKey struct {
	field types.Object
	base  string
}

// checkCancelSites reports Cancel calls on pooled fields that can reach
// function exit without the field being re-assigned (may-analysis).
func checkCancelSites(ix *funcIndex, r *funcRoot, c *schedPool) []Diagnostic {
	info := r.pkg.Info
	fx := setFacts(mayJoin, func(f set[cancelKey, token.Pos], n ast.Node) set[cancelKey, token.Pos] {
		// Assignments (nil stores, re-schedules, anything that replaces
		// the stale reference) clear before new cancels arm: a statement
		// mixing both (none exists in practice) errs on reporting.
		each(n, func(as *ast.AssignStmt) {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if field, base, ok := c.pooledField(info, sel); ok {
						f = f.without(cancelKey{field, base})
					}
				}
			}
		})
		// A Cancel through a local that aliases a pooled field (`ev :=
		// h.ev; ev.Cancel()`) counts against the field itself.
		each(n, func(call *ast.CallExpr) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Cancel" {
				return
			}
			fields := []ast.Expr{sel.X}
			if x, ok := sel.X.(*ast.Ident); ok {
				fields = nil
				if obj := info.Uses[x]; obj != nil && c.isPooledPtr(obj.Type()) {
					for _, src := range r.alias.Sources(obj) {
						if src.Expr != nil && !src.Elem {
							fields = append(fields, unwrapAlias(src.Expr))
						}
					}
				}
			}
			for _, e := range fields {
				if fieldSel, ok := e.(*ast.SelectorExpr); ok {
					if field, base, ok := c.pooledField(info, fieldSel); ok {
						f = f.with(cancelKey{field, base}, call.Pos())
					}
				}
			}
		})
		return f
	})
	exit, ok := ExitFact(r.cfg, Forward(r.cfg, nil, fx))
	if !ok {
		return nil
	}
	var diags []Diagnostic
	for k, pos := range exit {
		path := k.base + "." + k.field.Name()
		diags = append(diags, ix.diag("poolcontract", pos, path+".Cancel() can reach function exit without clearing "+
			path+"; a cancelled pooled event is recycled once drained — assign nil at the Cancel site"))
	}
	return diags
}

// callbackClearsField reports whether every path through the callback
// assigns the field (must-analysis over the callback's own CFG), under
// any base: the callback may capture the holder under another name.
func (ix *funcIndex) callbackClearsField(info *types.Info, lit *ast.FuncLit, field types.Object) bool {
	cfg := ix.lits[lit].cfg
	fx := setFacts(mustJoin, func(f objSet, n ast.Node) objSet {
		each(n, func(as *ast.AssignStmt) {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && s.Obj() == field {
						f = f.with(field, struct{}{})
					}
				}
			}
		})
		return f
	})
	cleared, reachable := ExitFact(cfg, Forward(cfg, nil, fx))
	return !reachable || cleared.has(field) // a callback that never returns recycles nothing after
}

// mutatesContainer reports whether the callback assigns into, deletes
// from, or re-slices the container field.
func mutatesContainer(info *types.Info, lit *ast.FuncLit, field types.Object) bool {
	touches := func(expr ast.Expr) bool {
		for {
			switch e := expr.(type) {
			case *ast.IndexExpr:
				expr = e.X
			case *ast.SelectorExpr:
				s, ok := info.Selections[e]
				return ok && s.Obj() == field
			default:
				return false
			}
		}
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				found = found || touches(lhs)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				found = found || touches(n.Args[0])
			}
		}
		return !found
	})
	return found
}

// pooledField resolves sel to a struct field of the pooled pointer type
// and the textual base it is selected on.
func (c *schedPool) pooledField(info *types.Info, sel *ast.SelectorExpr) (types.Object, string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || !c.isPooledPtr(s.Obj().Type()) {
		return nil, "", false
	}
	return s.Obj(), types.ExprString(sel.X), true
}

// isPooledPtr reports whether t is a pointer to the pooled type.
func (c *schedPool) isPooledPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && c.objs[n.Obj()]
}

// isAcquireCall reports whether call is one of the acquire methods.
func (c *schedPool) isAcquireCall(info *types.Info, call *ast.CallExpr) bool {
	fn := funcOf(info, call)
	return fn != nil && c.objs[fn.Origin()]
}

// callbackLit returns the function-literal callback argument of an
// acquire call, or nil.
func callbackLit(call *ast.CallExpr) *ast.FuncLit {
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// PoolSync shape.

// poolFact tracks Get-origin values by canonical object (alias Root) in
// two may-sets: a value on some path recycled is suspect even where it
// may also be live, so "recycled" dominates "live".
type poolFact struct {
	live, recycled objSet
}

func (f poolFact) set(obj types.Object, live, recycled bool) poolFact {
	f.live, f.recycled = f.live.without(obj), f.recycled.without(obj)
	if live {
		f.live = f.live.with(obj, struct{}{})
	}
	if recycled {
		f.recycled = f.recycled.with(obj, struct{}{})
	}
	return f
}

func (f poolFact) isLive(obj types.Object) bool { return f.live.has(obj) && !f.recycled.has(obj) }

// syncPoolCall matches `Var.Get()` / `Var.Put(x)` on a contracted pool
// variable, unwrapping a trailing type assertion on Get.
func syncPoolCall(info *types.Info, e ast.Expr, pools map[types.Object]*PoolContract) (c *PoolContract, method string, arg ast.Expr) {
	if ta, isTA := e.(*ast.TypeAssertExpr); isTA {
		e = ta.X
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, "", nil
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", nil
	}
	if c = pools[identObj(info, sel.X)]; c == nil {
		return nil, "", nil
	}
	switch {
	case sel.Sel.Name == "Put" && len(call.Args) == 1:
		return c, "Put", call.Args[0]
	case sel.Sel.Name == "Get" && len(call.Args) == 0:
		return c, "Get", nil
	}
	return nil, "", nil
}

// sweepSyncPool runs the per-root state machine for every contracted
// sync.Pool.
func sweepSyncPool(ix *funcIndex, r *funcRoot, pools map[types.Object]*PoolContract) []Diagnostic {
	info := r.pkg.Info
	// rootOf is the canonical object of an expression naming a local
	// (alias Root, so `y := x` shares x's state), or nil.
	rootOf := func(e ast.Expr) types.Object { return r.alias.Root(identObj(info, e)) }
	origin := map[types.Object]*PoolContract{} // tracked root → its pool
	fx := Facts[poolFact]{
		Join: func(a, b poolFact) poolFact {
			return poolFact{mayJoin(a.live, b.live), mayJoin(a.recycled, b.recycled)}
		},
		Equal: func(a, b poolFact) bool { return sameKeys(a.live, b.live) && sameKeys(a.recycled, b.recycled) },
		Transfer: func(f poolFact, n ast.Node) poolFact {
			each(n, func(call *ast.CallExpr) {
				if c, method, arg := syncPoolCall(info, call, pools); method == "Put" {
					if root := rootOf(arg); root != nil {
						origin[root] = c
						f = f.set(root, false, true)
					}
				}
			})
			each(n, func(as *ast.AssignStmt) {
				for i, lhs := range as.Lhs {
					id, isIdent := lhs.(*ast.Ident)
					root := rootOf(lhs)
					if !isIdent || id.Name == "_" || root == nil {
						continue
					}
					if len(as.Lhs) == len(as.Rhs) {
						if c, method, _ := syncPoolCall(info, as.Rhs[i], pools); method == "Get" {
							origin[root] = c
							f = f.set(root, true, false)
							continue
						}
					}
					f = f.set(root, false, false)
				}
			})
			if send, ok := n.(*ast.SendStmt); ok {
				if root := rootOf(send.Value); root != nil {
					f = f.set(root, false, false)
				}
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if root := rootOf(res); root != nil && f.isLive(root) {
						f = f.set(root, false, false) // ownership transfers to the caller
					}
				}
			}
			return f
		},
	}

	var diags []Diagnostic
	report := func(pos token.Pos, msg string) { diags = append(diags, ix.diag("poolcontract", pos, msg)) }
	VisitWithFacts(r.cfg, Forward(r.cfg, poolFact{}, fx), fx, func(f poolFact, n ast.Node) {
		// Idents exempt from the use-after-recycle scan: Put arguments
		// (judged by the double-Put check) and assignment targets (a
		// reassignment re-arms the variable, it does not read it).
		skip := map[*ast.Ident]bool{}
		each(n, func(as *ast.AssignStmt) {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					skip[id] = true
				}
			}
		})
		each(n, func(call *ast.CallExpr) {
			c, method, arg := syncPoolCall(info, call, pools)
			if method != "Put" {
				return
			}
			if id, isIdent := unwrapAlias(arg).(*ast.Ident); isIdent {
				skip[id] = true
			}
			if f.recycled.has(rootOf(arg)) {
				report(call.Pos(), c.PoolVar+".Put("+nameOf(arg)+") on a path where "+nameOf(arg)+
					" may already be recycled; a double Put hands the same object to two goroutines")
			}
		})
		each(n, func(id *ast.Ident) {
			obj, isVar := info.Uses[id].(*types.Var)
			if !isVar || skip[id] || !f.recycled.has(r.alias.Root(obj)) {
				return
			}
			name := "the pool"
			if c := origin[r.alias.Root(obj)]; c != nil {
				name = c.PoolVar
			}
			report(id.Pos(), id.Name+" used after "+name+".Put may have recycled it; the pool can hand the object to another goroutine at any time")
		})
		if send, ok := n.(*ast.SendStmt); ok {
			if root := rootOf(send.Value); f.isLive(root) {
				if c := origin[root]; c != nil && !c.TransferViaSend {
					report(send.Pos(), "pooled "+nameOf(send.Value)+" from "+c.PoolVar+
						" escapes via channel send with no declared ownership transfer; the receiver and the pool would both own it")
				}
			}
		}
		each(n, func(as *ast.AssignStmt) {
			if len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i, lhs := range as.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if root := rootOf(as.Rhs[i]); f.isLive(root) {
						if c := origin[root]; c != nil {
							report(as.Pos(), "pooled "+nameOf(as.Rhs[i])+" from "+c.PoolVar+
								" escapes into "+types.ExprString(lhs)+"; a stored reference outlives the recycle and aliases a stranger's object")
						}
					}
				}
			}
		})
	})
	return diags
}

// nameOf renders a short display name for a pooled-value expression.
func nameOf(e ast.Expr) string {
	if id, ok := unwrapAlias(e).(*ast.Ident); ok {
		return id.Name
	}
	return types.ExprString(e)
}

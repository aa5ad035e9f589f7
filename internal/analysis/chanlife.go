package analysis

// chanlife machine-checks channel lifecycle discipline against the
// declarative ChannelContracts table (invariants.go). Go's runtime
// semantics make channel teardown a protocol, not a type: closing twice
// panics, sending after close panics, and which function owns the close
// is pure convention. The data plane's conventions — instance.step is
// the only closer of instance.quit, FitPool.Close is the only closer of
// jobs, respCh is deliberately never closed — were previously enforced
// by comment. chanlife enforces them:
//
//   - close ownership: the module must contain exactly Closers static
//     close sites for each contracted channel identity (0 declares a
//     never-closed channel). A refactor that adds a second closer, or
//     deletes the one closer and leaks every ranging worker, fails lint.
//   - signal purity: a SignalOnly channel (quit/done) is close-only;
//     any send through it is diagnosed — receivers wait for the close,
//     and a send on a closed signal channel panics the sender.
//   - no use after close: within any one function body, a send to or a
//     second close of a contracted channel that is reachable after a
//     close on SOME path (may-analysis over the CFG, union join) is
//     diagnosed at the offending statement.
//   - coverage: a channel-typed struct field in a contracted package
//     with no table entry is itself diagnosed — every long-lived
//     channel must declare its close owner, even if the answer is
//     "nobody".
//
// Contracts resolve through the shared contract resolver, so a stale
// entry (renamed field, deleted function) is a diagnostic too: the table
// rots loudly, not silently.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// ChanLifeAnalyzer implements the chanlife check.
var ChanLifeAnalyzer = &Analyzer{
	Name: "chanlife",
	Doc:  "channel lifecycle contracts: exactly the declared close sites per channel, signal channels close-only, no send or re-close reachable after a close",
	Run:  runChanLife,
}

func runChanLife(ix *funcIndex) []Diagnostic {
	table := ix.Channels
	if table == nil {
		table = ChannelContracts
	}
	var diags []Diagnostic
	byObj := map[types.Object]*ChannelContract{}
	for i := range table {
		c := &table[i]
		// A local contract can resolve to several shadowed objects; they
		// share the contract, and the first anchors its diagnostics.
		objs, stale := ix.resolveRow("chanlife", "ChannelContract", c.DisplayName(), []string{c.Pkg}, func(p *types.Package) []types.Object {
			if c.Field != "" {
				if obj := lookupField(p, c.Type, c.Field); obj != nil {
					return []types.Object{obj}
				}
				return nil
			}
			return ix.lookupLocals(p, c.Func, c.Var, carriesChan)
		})
		diags = append(diags, stale...)
		for _, obj := range objs {
			byObj[obj] = c
		}
		if len(objs) > 0 {
			diags = append(diags, checkCloserCount(ix, c, objs)...)
		}
	}
	diags = append(diags, checkSignalSends(ix, byObj)...)
	diags = append(diags, checkUseAfterClose(ix, byObj)...)
	diags = append(diags, checkFieldCoverage(ix, table, byObj)...)
	return diags
}

// carriesChan reports whether t is a channel or a slice/array/map of
// channels (the bench runner's done []chan struct{} shape).
func carriesChan(t types.Type) bool {
	switch t := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Slice:
		return carriesChan(t.Elem())
	case *types.Array:
		return carriesChan(t.Elem())
	case *types.Map:
		return carriesChan(t.Elem())
	}
	return false
}

// checkCloserCount compares one contract's static close sites against
// its declared Closers.
func checkCloserCount(ix *funcIndex, c *ChannelContract, objs []types.Object) []Diagnostic {
	var sites []token.Pos
	for _, obj := range objs {
		sites = append(sites, ix.closes[obj]...)
	}
	if len(sites) == c.Closers {
		return nil
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	msg := "channel " + c.DisplayName() + " declares " +
		strconv.Itoa(c.Closers) + " close site(s), found " + strconv.Itoa(len(sites))
	if len(sites) > 0 {
		var where []string
		for _, p := range sites {
			pos := ix.Fset.Position(p)
			where = append(where, pos.Filename+":"+strconv.Itoa(pos.Line))
		}
		msg += " (" + strings.Join(where, ", ") + ")"
	}
	return []Diagnostic{ix.diag("chanlife", objs[0].Pos(), msg+"; close ownership is part of the contract — fix the code or the table")}
}

// checkSignalSends diagnoses every send on a SignalOnly channel.
func checkSignalSends(ix *funcIndex, byObj map[types.Object]*ChannelContract) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range ix.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if send, ok := n.(*ast.SendStmt); ok {
					if c := byObj[chanTargetObj(pkg, send.Chan)]; c != nil && c.SignalOnly {
						diags = append(diags, ix.diag("chanlife", send.Pos(), "send on signal-only channel "+c.DisplayName()+
							"; receivers wait for the close, and a send after close panics — close it instead"))
					}
				}
				return true
			})
		}
	}
	return diags
}

// chanDirectObj resolves a channel expression to its object like
// chanTargetObj, but refuses indexed accesses (done[i]): an element of
// a channel container has per-element identity the object-granularity
// may-analysis cannot track — a loop closing done[i] closes a different
// element each iteration, not the same channel twice. Indexed channels
// are covered by the close-site count and signal-purity checks instead.
func chanDirectObj(pkg *Package, e ast.Expr) types.Object {
	if _, ok := unwrapAlias(e).(*ast.IndexExpr); ok {
		return nil
	}
	return chanTargetObj(pkg, e)
}

// closed is the may-fact of checkUseAfterClose: each contracted channel
// object with the position of a close that may already have executed on
// some path to this point.
type closed = set[types.Object, token.Pos]

// checkUseAfterClose runs the per-root may-analysis: a send to or a
// second close of a contracted channel reachable after a close on some
// path is a diagnostic at the offending statement.
func checkUseAfterClose(ix *funcIndex, byObj map[types.Object]*ChannelContract) []Diagnostic {
	if len(byObj) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, r := range ix.roots {
		pkg := r.pkg
		// eachClose visits the close(...) calls of contracted, directly
		// named channels in n.
		eachClose := func(n ast.Node, visit func(obj types.Object, pos token.Pos)) {
			each(n, func(call *ast.CallExpr) {
				if isBuiltin(pkg.Info, call, "close") && len(call.Args) == 1 {
					if obj := chanDirectObj(pkg, call.Args[0]); byObj[obj] != nil {
						visit(obj, call.Pos())
					}
				}
			})
		}
		fx := setFacts(mayJoin, func(f closed, n ast.Node) closed {
			eachClose(n, func(obj types.Object, pos token.Pos) { f = f.without(obj).with(obj, pos) })
			return f
		})
		VisitWithFacts(r.cfg, Forward(r.cfg, nil, fx), fx, func(f closed, n ast.Node) {
			if len(f) == 0 {
				return
			}
			if send, ok := n.(*ast.SendStmt); ok {
				if obj := chanDirectObj(pkg, send.Chan); f.has(obj) {
					diags = append(diags, ix.diag("chanlife", send.Pos(), "send to "+byObj[obj].DisplayName()+
						" may follow its close at line "+strconv.Itoa(ix.Fset.Position(f[obj]).Line)+
						"; a send on a closed channel panics"))
				}
				return
			}
			eachClose(n, func(obj types.Object, pos token.Pos) {
				if prev, closed := f[obj]; closed {
					diags = append(diags, ix.diag("chanlife", pos, "close of "+byObj[obj].DisplayName()+
						" may follow an earlier close at line "+strconv.Itoa(ix.Fset.Position(prev).Line)+
						"; a double close panics"))
				}
			})
		})
	}
	return diags
}

// checkFieldCoverage diagnoses channel-typed struct fields in
// contracted packages that have no ChannelContract entry.
func checkFieldCoverage(ix *funcIndex, table []ChannelContract, byObj map[types.Object]*ChannelContract) []Diagnostic {
	var scopes []string
	for i := range table {
		scopes = append(scopes, table[i].Pkg)
	}
	var diags []Diagnostic
	for _, pkg := range ix.Pkgs {
		if len(scopes) == 0 || !inScope(pkg.Path, scopes) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); isChan(f.Type()) && byObj[f] == nil {
					diags = append(diags, ix.diag("chanlife", f.Pos(), "channel field "+name+"."+f.Name()+
						" has no ChannelContract entry; declare its close owner in the table (Closers: 0 if nobody closes it)"))
				}
			}
		}
	}
	return diags
}

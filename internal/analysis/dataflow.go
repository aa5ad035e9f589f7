package analysis

// dataflow.go is a small forward-dataflow framework over the CFG: a
// lattice (Bottom/Join/Equal) plus a per-node Transfer, iterated with a
// worklist to a fixpoint. The join runs only over edges that have
// actually propagated a fact, so the same engine serves may-analyses
// (Join = union: a fact holds if it holds on some path) and
// must-analyses (Join = intersection: it holds on every path) —
// unreached predecessors simply do not contribute.
//
// Every dataflow fact in the suite is, or is built from, one lattice:
// set, an immutable map from a key (a declared object, or a field plus
// its base path) to a payload (where the fact was established), with a
// may join (union) and a must join (intersection). Both joins keep the
// left operand's payload for a shared key, and equality compares keys
// only, so a payload records the first path that reached a point.

import (
	"go/ast"
	"go/types"
)

// set is one immutable dataflow fact. with and without return a copy
// when they change anything and the receiver itself otherwise.
type set[K comparable, V any] map[K]V

// objSet is a set of declared objects without payload.
type objSet = set[types.Object, struct{}]

func (s set[K, V]) has(k K) bool {
	_, ok := s[k]
	return ok
}

// with returns s plus k; a key already present keeps its payload.
func (s set[K, V]) with(k K, v V) set[K, V] {
	if s.has(k) {
		return s
	}
	out := make(set[K, V], len(s)+1)
	for k2, v2 := range s {
		out[k2] = v2
	}
	out[k] = v
	return out
}

func (s set[K, V]) without(k K) set[K, V] {
	if !s.has(k) {
		return s
	}
	out := make(set[K, V], len(s))
	for k2, v2 := range s {
		if k2 != k {
			out[k2] = v2
		}
	}
	return out
}

// mayJoin is the union: a fact holds if it holds on some path.
func mayJoin[K comparable, V any](a, b set[K, V]) set[K, V] {
	if len(a) == 0 {
		return b
	}
	out := make(set[K, V], len(a)+len(b))
	for k, v := range b {
		out[k] = v
	}
	for k, v := range a {
		out[k] = v
	}
	return out
}

// mustJoin is the intersection: a fact holds if it holds on every path.
func mustJoin[K comparable, V any](a, b set[K, V]) set[K, V] {
	out := set[K, V]{}
	for k, v := range a {
		if b.has(k) {
			out[k] = v
		}
	}
	return out
}

func sameKeys[K comparable, V any](a, b set[K, V]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b.has(k) {
			return false
		}
	}
	return true
}

// setFacts is the Facts of a set-valued analysis with the given join.
func setFacts[K comparable, V any](join func(a, b set[K, V]) set[K, V], transfer func(set[K, V], ast.Node) set[K, V]) Facts[set[K, V]] {
	return Facts[set[K, V]]{Join: join, Equal: sameKeys[K, V], Transfer: transfer}
}

// Facts defines one forward analysis. F must behave as an immutable
// value: Transfer and Join return fresh values and never mutate their
// inputs (facts are shared across blocks).
type Facts[F any] struct {
	// Join merges the facts of two incoming edges.
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
	// Transfer applies one statement-level CFG node to the fact.
	Transfer func(f F, n ast.Node) F
}

// Forward computes the fixpoint of fx over c starting from the entry
// fact, returning the in-fact of every reached block (including
// c.Exit, whose in-fact is the merged at-exit state).
func Forward[F any](c *CFG, entry F, fx Facts[F]) map[*Block]F {
	ins := map[*Block]F{c.Entry: entry}
	work := []*Block{c.Entry}
	inWork := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		out := ins[blk]
		for _, n := range blk.Nodes {
			out = fx.Transfer(out, n)
		}
		for _, succ := range blk.Succs {
			var next F
			if prev, seen := ins[succ]; seen {
				next = fx.Join(prev, out)
				if fx.Equal(prev, next) {
					continue
				}
			} else {
				next = out
			}
			ins[succ] = next
			if !inWork[succ] {
				inWork[succ] = true
				work = append(work, succ)
			}
		}
	}
	return ins
}

// VisitWithFacts replays the transfer over every reached block from its
// fixpoint in-fact, calling visit(fact, node) with the fact holding
// immediately BEFORE each node. Analyzers use this to emit diagnostics
// at specific statements once Forward has converged.
func VisitWithFacts[F any](c *CFG, ins map[*Block]F, fx Facts[F], visit func(f F, n ast.Node)) {
	for _, blk := range c.Blocks {
		f, seen := ins[blk]
		if !seen {
			continue // unreachable
		}
		for _, n := range blk.Nodes {
			visit(f, n)
			f = fx.Transfer(f, n)
		}
	}
}

// ExitFact returns the merged fact at function exit and whether the
// exit is reachable at all.
func ExitFact[F any](c *CFG, ins map[*Block]F) (F, bool) {
	f, ok := ins[c.Exit]
	return f, ok
}

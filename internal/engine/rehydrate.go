package engine

import (
	"transit/internal/expr"
)

// Cache keys are structural (names, signatures, value sets), so a hit may
// come from an entry recorded against a *different* Universe instance —
// e.g. a fresh build of the same protocol, or a shared cache spanning
// protocol variants. Expressions, however, carry pointer identities:
// enum types, vocabulary *Funcs, and typed variables. Replaying a foreign
// expression verbatim would evaluate correctly (the carriers are equal by
// construction of the key) but fail every pointer-identity type check
// downstream. rehydrate translates a cached expression into the target
// spec's world: functions are re-bound by signature (the target
// vocabulary's BySig), variables by name, and enum types/ordinals by name.
// When the entry already belongs to the target universe the original
// nodes are returned unchanged (no allocation on the hot within-run path).
type rehydrator struct {
	u     *expr.Universe
	vocab *expr.Vocabulary
	vars  map[string]*expr.Var
}

func newRehydrator(spec SolveSpec) *rehydrator {
	r := &rehydrator{
		u:     spec.Problem.U,
		vocab: spec.Problem.Vocab,
		vars:  make(map[string]*expr.Var),
	}
	// Only the inputs: an answer naming the hole's own output variable is
	// not an answer.
	for _, v := range spec.Problem.Vars {
		r.vars[v.Name] = v
	}
	return r
}

// rehydrate returns spec's-universe equivalent of e, or false when some
// symbol has no counterpart (a key collision; the caller then treats the
// lookup as a miss and re-solves). Rebuild panics (NewApply type checks)
// are likewise demoted to a miss: a stale entry must never kill a worker.
func (spec SolveSpec) rehydrate(e expr.Expr) (res expr.Expr, ok bool) {
	defer func() {
		if recover() != nil {
			res, ok = nil, false
		}
	}()
	return newRehydrator(spec).walk(e)
}

func (r *rehydrator) walk(e expr.Expr) (expr.Expr, bool) {
	switch n := e.(type) {
	case *expr.Var:
		tv, ok := r.vars[n.Name]
		if !ok || tv.VT.Kind != n.VT.Kind {
			return nil, false
		}
		return tv, true
	case *expr.Const:
		t := n.Val.Type()
		if t.Kind != expr.KindEnum {
			return n, true
		}
		te, ok := r.u.Enum(t.Enum.Name)
		if !ok {
			return nil, false
		}
		if te == t.Enum {
			return n, true
		}
		ord := n.Val.EnumOrd()
		if ord >= len(te.Values) || te.Values[ord] != t.Enum.Values[ord] {
			return nil, false
		}
		return expr.NewConst(expr.EnumVal(te, ord)), true
	case *expr.Apply:
		fn, ok := r.vocab.BySig(n.Fn.String())
		if !ok {
			return nil, false
		}
		changed := fn != n.Fn
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, ok := r.walk(a)
			if !ok {
				return nil, false
			}
			args[i] = ra
			if ra != a {
				changed = true
			}
		}
		if !changed {
			return n, true
		}
		return expr.NewApply(fn, args...), true
	}
	return nil, false
}

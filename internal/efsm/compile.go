package efsm

import (
	"fmt"
	"math/bits"

	"transit/internal/expr"
)

// Compiled transitions. NewRuntime compiles every guard, update and send
// field once, against a slot-indexed scope: the process variables in
// declaration order, then Self, then the event's message fields. A scope
// holds payloads as the packed state stores them, so matching and
// applying a transition read fields straight out of the state vector, with
// no environment map and no expr.Value in between. FuzzCompiledEval holds
// the compiled evaluator to expr.Expr.Eval.

// cop is a compiled node's operation. An application's cop is its
// symbol's expr.Builtin, so expr.BuiltinOf is the one table that maps
// function symbols to built-ins; opCall (expr.NotBuiltin) applies any other
// symbol through its own Apply. Constants and variables follow the
// built-ins.
type cop uint8

const (
	opCall        = cop(expr.NotBuiltin)
	opAdd         = cop(expr.BuiltinAdd)
	opSub         = cop(expr.BuiltinSub)
	opInc         = cop(expr.BuiltinInc)
	opDec         = cop(expr.BuiltinDec)
	opSetAdd      = cop(expr.BuiltinSetAdd)
	opSetSize     = cop(expr.BuiltinSetSize)
	opSetUnion    = cop(expr.BuiltinSetUnion)
	opSetInter    = cop(expr.BuiltinSetInter)
	opSetMinus    = cop(expr.BuiltinSetMinus)
	opSetOf       = cop(expr.BuiltinSetOf)
	opSetContains = cop(expr.BuiltinSetContains)
	opAnd         = cop(expr.BuiltinAnd)
	opOr          = cop(expr.BuiltinOr)
	opNot         = cop(expr.BuiltinNot)
	opIsZero      = cop(expr.BuiltinIsZero)
	opGe          = cop(expr.BuiltinGe)
	opGt          = cop(expr.BuiltinGt)
	opEq          = cop(expr.BuiltinEquals)
	opIte         = cop(expr.BuiltinIte)
	opConst       = cop(expr.NumBuiltins)
	opVar         = opConst + 1
)

// cexpr is a compiled expression node. Subtrees without variables are
// folded to constants at compile time.
type cexpr struct {
	op   cop
	slot int    // opVar
	k    uint64 // opConst
	// shift wraps Int results to the universe's width (64 - width).
	shift uint
	args  []*cexpr
	// fn and u serve opCall.
	fn *expr.Func
	u  *expr.Universe
}

// scopeVar is a variable's slot and declared type in a compiled scope.
type scopeVar struct {
	slot int
	t    expr.Type
}

// compileExpr compiles e against scope. It fails on variables the scope
// lacks or declares at another type.
func compileExpr(u *expr.Universe, e expr.Expr, scope map[string]scopeVar) (*cexpr, error) {
	switch n := e.(type) {
	case *expr.Const:
		return &cexpr{op: opConst, k: payload(n.Val)}, nil
	case *expr.Var:
		sv, ok := scope[n.Name]
		if !ok {
			return nil, fmt.Errorf("efsm: variable %s is outside the scope", n.Name)
		}
		if sv.t != n.VT {
			return nil, fmt.Errorf("efsm: variable %s is %s in the expression but %s in the scope", n.Name, n.VT, sv.t)
		}
		return &cexpr{op: opVar, slot: sv.slot}, nil
	case *expr.Apply:
		c := &cexpr{op: cop(expr.BuiltinOf(n.Fn)), shift: 64 - u.IntWidth(), args: make([]*cexpr, len(n.Args))}
		folded := true
		for i, a := range n.Args {
			ca, err := compileExpr(u, a, scope)
			if err != nil {
				return nil, err
			}
			c.args[i] = ca
			folded = folded && ca.op == opConst
		}
		if folded {
			return &cexpr{op: opConst, k: payload(n.Eval(u, nil))}, nil
		}
		if c.op == opCall {
			c.fn, c.u = n.Fn, u
		}
		return c, nil
	}
	return nil, fmt.Errorf("efsm: cannot compile %T", e)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *cexpr) wrap(x uint64) uint64 { return uint64(int64(x<<e.shift) >> e.shift) }

// eval evaluates the node over a scope of payloads.
func (e *cexpr) eval(s []uint64) uint64 {
	a := e.args
	switch e.op {
	case opConst:
		return e.k
	case opVar:
		return s[e.slot]
	case opAdd:
		return e.wrap(a[0].eval(s) + a[1].eval(s))
	case opSub:
		return e.wrap(a[0].eval(s) - a[1].eval(s))
	case opInc:
		return e.wrap(a[0].eval(s) + 1)
	case opDec:
		return e.wrap(a[0].eval(s) - 1)
	case opSetAdd:
		return a[0].eval(s) | 1<<a[1].eval(s)
	case opSetSize:
		return e.wrap(uint64(bits.OnesCount64(a[0].eval(s))))
	case opSetUnion:
		return a[0].eval(s) | a[1].eval(s)
	case opSetInter:
		return a[0].eval(s) & a[1].eval(s)
	case opSetMinus:
		return a[0].eval(s) &^ a[1].eval(s)
	case opSetOf:
		return 1 << a[0].eval(s)
	case opSetContains:
		return b2u(a[0].eval(s)&(1<<a[1].eval(s)) != 0)
	case opAnd:
		if a[0].eval(s) == 0 {
			return 0
		}
		return a[1].eval(s)
	case opOr:
		if a[0].eval(s) != 0 {
			return 1
		}
		return a[1].eval(s)
	case opNot:
		return a[0].eval(s) ^ 1
	case opIsZero:
		return b2u(a[0].eval(s) == 0)
	case opGe:
		return b2u(int64(a[0].eval(s)) >= int64(a[1].eval(s)))
	case opGt:
		return b2u(int64(a[0].eval(s)) > int64(a[1].eval(s)))
	case opEq:
		return b2u(a[0].eval(s) == a[1].eval(s))
	case opIte:
		if a[0].eval(s) != 0 {
			return a[1].eval(s)
		}
		return a[2].eval(s)
	}
	vals := make([]expr.Value, len(a))
	for i, arg := range a {
		vals[i] = valueOf(e.u, e.fn.Params[i], arg.eval(s))
	}
	return payload(e.fn.Apply(e.u, vals))
}

// ctrans is a transition compiled for one process definition.
type ctrans struct {
	t  *Transition
	to int // target control ordinal (unused for stalls)
	// catchAll marks an unguarded stall, the lowest-priority candidate.
	catchAll bool
	guard    *cexpr // nil: true
	updates  []cupdate
	sends    []csend
}

type cupdate struct {
	v   int // variable index
	rhs *cexpr
}

type csend struct {
	net    int
	fields []cfield
	// target is the multicast member set, nil for a unicast.
	target *cexpr
}

type cfield struct {
	idx int
	rhs *cexpr
}

// compileTrans compiles t for the instances of pl's definition; for
// message events the system network's fields enter the scope under t's
// own message variable.
func (r *Runtime) compileTrans(pl *procLayout, t *Transition) (*ctrans, error) {
	d := pl.def
	u := r.Sys.U
	ctx := fmt.Sprintf("efsm: %s transition (%s, %s)", d.Name, t.From, t.Event)
	scope := make(map[string]scopeVar, len(d.Vars)+6)
	for j, v := range d.Vars {
		scope[v.Name] = scopeVar{j, v.VT}
	}
	scope[SelfVar] = scopeVar{len(d.Vars), expr.PIDType}
	if !t.Event.IsTrigger() {
		n, ok := r.netByName[t.Event.Net.Name]
		if !ok {
			return nil, fmt.Errorf("%s: network %s is not in the system", ctx, t.Event.Net.Name)
		}
		for j, f := range r.nets[n].net.Msg.Fields {
			scope[t.Event.MsgVar+"."+f.Name] = scopeVar{len(d.Vars) + 1 + j, f.T}
		}
	}
	comp := func(e expr.Expr, what string) (*cexpr, error) {
		c, err := compileExpr(u, e, scope)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", ctx, what, err)
		}
		return c, nil
	}
	ct := &ctrans{t: t, to: d.States.Ord(t.To), catchAll: t.Defer && t.Guard == nil}
	var err error
	if t.Guard != nil {
		if ct.guard, err = comp(t.Guard, "guard"); err != nil {
			return nil, err
		}
	}
	for _, up := range t.Updates {
		c, err := comp(up.Rhs, "update "+up.Var)
		if err != nil {
			return nil, err
		}
		ct.updates = append(ct.updates, cupdate{d.VarIndex(up.Var), c})
	}
	for _, snd := range t.Sends {
		n, ok := r.netByName[snd.Net.Name]
		if !ok {
			return nil, fmt.Errorf("%s: send on %s, which is not in the system", ctx, snd.Net.Name)
		}
		cs := csend{net: n}
		if snd.TargetSet != nil {
			if cs.target, err = comp(snd.TargetSet, "multicast target"); err != nil {
				return nil, err
			}
		}
		msg := r.nets[n].net.Msg
		for _, fa := range snd.Fields {
			idx := msg.FieldIndex(fa.Field)
			if idx < 0 {
				return nil, fmt.Errorf("%s: send on %s sets unknown field %s", ctx, snd.Net.Name, fa.Field)
			}
			c, err := comp(fa.Rhs, "send field "+fa.Field)
			if err != nil {
				return nil, err
			}
			cs.fields = append(cs.fields, cfield{idx, c})
		}
		ct.sends = append(ct.sends, cs)
	}
	return ct, nil
}

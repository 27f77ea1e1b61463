package expr

import (
	"fmt"
	"math/bits"
	"sync"
)

// Canonical Func instances for the Table 1 vocabulary. The SMT encoder
// dispatches on function name and parameter types, so all components must
// build expressions from these shared symbols (directly or through the
// builder helpers) to stay within the encodable fragment.
var (
	// FnAdd is integer addition (wrapping).
	FnAdd = &Func{Name: "add", Params: []Type{IntType, IntType}, Ret: IntType,
		Apply: func(u *Universe, a []Value) Value { return IntVal(u, a[0].Int()+a[1].Int()) }}
	// FnSub is integer subtraction (wrapping).
	FnSub = &Func{Name: "sub", Params: []Type{IntType, IntType}, Ret: IntType,
		Apply: func(u *Universe, a []Value) Value { return IntVal(u, a[0].Int()-a[1].Int()) }}
	// FnInc adds one to an integer.
	FnInc = &Func{Name: "inc", Params: []Type{IntType}, Ret: IntType,
		Apply: func(u *Universe, a []Value) Value { return IntVal(u, a[0].Int()+1) }}
	// FnDec subtracts one from an integer.
	FnDec = &Func{Name: "dec", Params: []Type{IntType}, Ret: IntType,
		Apply: func(u *Universe, a []Value) Value { return IntVal(u, a[0].Int()-1) }}
	// FnSetAdd inserts a PID into a set.
	FnSetAdd = &Func{Name: "setadd", Params: []Type{SetType, PIDType}, Ret: SetType,
		Apply: func(u *Universe, a []Value) Value { return SetVal(a[0].Set() | 1<<uint(a[1].PID())) }}
	// FnSetSize is set cardinality.
	FnSetSize = &Func{Name: "setsize", Params: []Type{SetType}, Ret: IntType,
		Apply: func(u *Universe, a []Value) Value { return IntVal(u, int64(bits.OnesCount64(a[0].Set()))) }}
	// FnSetUnion is set union.
	FnSetUnion = &Func{Name: "setunion", Params: []Type{SetType, SetType}, Ret: SetType,
		Apply: func(u *Universe, a []Value) Value { return SetVal(a[0].Set() | a[1].Set()) }}
	// FnSetInter is set intersection.
	FnSetInter = &Func{Name: "setinter", Params: []Type{SetType, SetType}, Ret: SetType,
		Apply: func(u *Universe, a []Value) Value { return SetVal(a[0].Set() & a[1].Set()) }}
	// FnSetMinus is set difference.
	FnSetMinus = &Func{Name: "setminus", Params: []Type{SetType, SetType}, Ret: SetType,
		Apply: func(u *Universe, a []Value) Value { return SetVal(a[0].Set() &^ a[1].Set()) }}
	// FnSetOf makes a singleton set.
	FnSetOf = &Func{Name: "setof", Params: []Type{PIDType}, Ret: SetType,
		Apply: func(u *Universe, a []Value) Value { return SetVal(1 << uint(a[0].PID())) }}
	// FnSetContains is the set-membership test.
	FnSetContains = &Func{Name: "setcontains", Params: []Type{SetType, PIDType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Set()&(1<<uint(a[1].PID())) != 0) }}
	// FnAnd is Boolean conjunction.
	FnAnd = &Func{Name: "and", Params: []Type{BoolType, BoolType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Bool() && a[1].Bool()) }}
	// FnOr is Boolean disjunction.
	FnOr = &Func{Name: "or", Params: []Type{BoolType, BoolType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Bool() || a[1].Bool()) }}
	// FnNot is Boolean negation.
	FnNot = &Func{Name: "not", Params: []Type{BoolType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(!a[0].Bool()) }}
	// FnIsZero tests an integer for zero.
	FnIsZero = &Func{Name: "iszero", Params: []Type{IntType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Int() == 0) }}
	// FnGe is signed greater-or-equal.
	FnGe = &Func{Name: "ge", Params: []Type{IntType, IntType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Int() >= a[1].Int()) }}
	// FnGt is signed greater-than.
	FnGt = &Func{Name: "gt", Params: []Type{IntType, IntType}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0].Int() > a[1].Int()) }}
	// FnNumCaches is the constant number of caches in the universe.
	FnNumCaches = &Func{Name: "numcaches", Params: nil, Ret: IntType,
		Apply: func(u *Universe, _ []Value) Value { return IntVal(u, int64(u.NumCaches())) }}
	// FnZero and FnOne are the vocabulary's integer constants; other
	// integer constants are abbreviations (2 = add(1,1), per the paper's
	// footnote).
	FnZero = &Func{Name: "0", Params: nil, Ret: IntType,
		Apply: func(u *Universe, _ []Value) Value { return IntVal(u, 0) }}
	FnOne = &Func{Name: "1", Params: nil, Ret: IntType,
		Apply: func(u *Universe, _ []Value) Value { return IntVal(u, 1) }}
	// FnTrue and FnFalse are the Boolean constants.
	FnTrue = &Func{Name: "true", Params: nil, Ret: BoolType,
		Apply: func(u *Universe, _ []Value) Value { return BoolVal(true) }}
	FnFalse = &Func{Name: "false", Params: nil, Ret: BoolType,
		Apply: func(u *Universe, _ []Value) Value { return BoolVal(false) }}
	// FnEmptySet is the empty-set constant.
	FnEmptySet = &Func{Name: "emptyset", Params: nil, Ret: SetType,
		Apply: func(u *Universe, _ []Value) Value { return SetVal(0) }}
)

// Builtin names what a Table 1 function symbol of arity one or more
// computes, so that a compiled evaluator can run its formula instead of
// calling Apply. Only the shared symbols above and the equals and ite
// overloads EqualsFn and IteFn return are built-ins: a symbol is
// recognized by identity, never by name, so any other Func is NotBuiltin.
type Builtin uint8

const (
	NotBuiltin Builtin = iota
	BuiltinAdd
	BuiltinSub
	BuiltinInc
	BuiltinDec
	BuiltinSetAdd
	BuiltinSetSize
	BuiltinSetUnion
	BuiltinSetInter
	BuiltinSetMinus
	BuiltinSetOf
	BuiltinSetContains
	BuiltinAnd
	BuiltinOr
	BuiltinNot
	BuiltinIsZero
	BuiltinGe
	BuiltinGt
	BuiltinEquals
	BuiltinIte
	// NumBuiltins is one past the last Builtin.
	NumBuiltins
)

// BuiltinOf reports which built-in f is: NotBuiltin for every symbol but
// the shared ones.
func BuiltinOf(f *Func) Builtin {
	genericMu.Lock()
	defer genericMu.Unlock()
	return builtins[f]
}

var (
	genericMu sync.Mutex
	equalsFns = map[Type]*Func{}
	iteFns    = map[Type]*Func{}
	enumLits  = map[Value]*Func{}
	pidLits   = map[int]*Func{}
	// builtins is the one table from function symbols to built-ins: the
	// fixed symbols, and each equals and ite overload as it is created.
	builtins = map[*Func]Builtin{
		FnAdd:         BuiltinAdd,
		FnSub:         BuiltinSub,
		FnInc:         BuiltinInc,
		FnDec:         BuiltinDec,
		FnSetAdd:      BuiltinSetAdd,
		FnSetSize:     BuiltinSetSize,
		FnSetUnion:    BuiltinSetUnion,
		FnSetInter:    BuiltinSetInter,
		FnSetMinus:    BuiltinSetMinus,
		FnSetOf:       BuiltinSetOf,
		FnSetContains: BuiltinSetContains,
		FnAnd:         BuiltinAnd,
		FnOr:          BuiltinOr,
		FnNot:         BuiltinNot,
		FnIsZero:      BuiltinIsZero,
		FnGe:          BuiltinGe,
		FnGt:          BuiltinGt,
	}
)

// EqualsFn returns the equals overload for type t (∀t: equals(t,t)→Bool).
// Instances are shared so that structural expression equality works across
// call sites.
func EqualsFn(t Type) *Func {
	genericMu.Lock()
	defer genericMu.Unlock()
	if f, ok := equalsFns[t]; ok {
		return f
	}
	f := &Func{Name: "equals", Params: []Type{t, t}, Ret: BoolType,
		Apply: func(u *Universe, a []Value) Value { return BoolVal(a[0] == a[1]) }}
	equalsFns[t] = f
	builtins[f] = BuiltinEquals
	return f
}

// IteFn returns the conditional overload for type t (∀t: ite(Bool,t,t)→t).
func IteFn(t Type) *Func {
	genericMu.Lock()
	defer genericMu.Unlock()
	if f, ok := iteFns[t]; ok {
		return f
	}
	f := &Func{Name: "ite", Params: []Type{BoolType, t, t}, Ret: t,
		Apply: func(u *Universe, a []Value) Value {
			if a[0].Bool() {
				return a[1]
			}
			return a[2]
		}}
	iteFns[t] = f
	builtins[f] = BuiltinIte
	return f
}

// EnumLitFn returns the arity-0 symbol for one enum literal.
func EnumLitFn(e *EnumType, ord int) *Func {
	v := EnumVal(e, ord)
	genericMu.Lock()
	defer genericMu.Unlock()
	if f, ok := enumLits[v]; ok {
		return f
	}
	f := &Func{Name: e.Values[ord], Params: nil, Ret: EnumOf(e),
		Apply: func(u *Universe, _ []Value) Value { return v }}
	enumLits[v] = f
	return f
}

// PIDLitFn returns the arity-0 symbol for a concrete PID constant (C0,
// C1, ...). These are available to snippets and examples; whether they join
// the enumeration vocabulary is a CoherenceOptions choice.
func PIDLitFn(p int) *Func {
	genericMu.Lock()
	defer genericMu.Unlock()
	if f, ok := pidLits[p]; ok {
		return f
	}
	f := &Func{Name: fmt.Sprintf("C%d", p), Params: nil, Ret: PIDType,
		Apply: func(u *Universe, _ []Value) Value { return PIDVal(p) }}
	pidLits[p] = f
	return f
}

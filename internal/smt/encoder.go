package smt

import (
	"fmt"

	"transit/internal/expr"
	"transit/internal/sat"
)

// encoder bit-blasts expressions over a Universe into a SAT instance.
// Every expression node becomes a little-endian vector of literals:
// Bool = 1 bit, Int = W bits (two's complement), PID = ceil(log2 n) bits
// (range-constrained), Set = n bits, Enum = ceil(log2 k) bits
// (range-constrained).
type encoder struct {
	u          *expr.Universe
	s          *sat.Solver
	numClauses int64
	trueLit    sat.Lit
	vars       map[string]encVar
	order      []string
	cache      map[expr.Expr][]sat.Lit
}

type encVar struct {
	t    expr.Type
	bits []sat.Lit
}

func newEncoder(u *expr.Universe, vars []*expr.Var) (*encoder, error) {
	e := &encoder{
		u:     u,
		s:     sat.New(),
		vars:  make(map[string]encVar, len(vars)),
		cache: make(map[expr.Expr][]sat.Lit),
	}
	// A dedicated always-true literal anchors constants.
	e.trueLit = e.fresh()
	e.addClause(e.trueLit)
	for _, v := range vars {
		if _, dup := e.vars[v.Name]; dup {
			return nil, fmt.Errorf("smt: duplicate variable %s", v.Name)
		}
		bits := make([]sat.Lit, e.widthOf(v.VT))
		for i := range bits {
			bits[i] = e.fresh()
		}
		e.vars[v.Name] = encVar{t: v.VT, bits: bits}
		e.order = append(e.order, v.Name)
		e.constrainDomain(v.VT, bits)
	}
	return e, nil
}

func (e *encoder) addClause(lits ...sat.Lit) {
	e.s.AddClause(lits...)
	e.numClauses++
}

func (e *encoder) fresh() sat.Lit { return sat.MkLit(e.s.NewVar(), false) }

func (e *encoder) falseLit() sat.Lit { return e.trueLit.Not() }

func (e *encoder) isTrue(l sat.Lit) bool  { return l == e.trueLit }
func (e *encoder) isFalse(l sat.Lit) bool { return l == e.trueLit.Not() }
func (e *encoder) isConst(l sat.Lit) bool { return e.isTrue(l) || e.isFalse(l) }

// widthOf reports the number of bits used for a type.
func (e *encoder) widthOf(t expr.Type) int {
	switch t.Kind {
	case expr.KindBool:
		return 1
	case expr.KindInt:
		return int(e.u.IntWidth())
	case expr.KindPID:
		return bitsFor(e.u.NumCaches())
	case expr.KindSet:
		return e.u.NumCaches()
	case expr.KindEnum:
		return bitsFor(len(t.Enum.Values))
	}
	panic("smt: widthOf on invalid type")
}

// bitsFor is the number of bits needed to represent values 0..n-1.
func bitsFor(n int) int {
	b := 0
	for (1 << uint(b)) < n {
		b++
	}
	return b
}

// constrainDomain blocks out-of-range patterns for PID and Enum variables.
func (e *encoder) constrainDomain(t expr.Type, bits []sat.Lit) {
	var n int
	switch t.Kind {
	case expr.KindPID:
		n = e.u.NumCaches()
	case expr.KindEnum:
		n = len(t.Enum.Values)
	default:
		return
	}
	for v := n; v < (1 << uint(len(bits))); v++ {
		clause := make([]sat.Lit, len(bits))
		for i, b := range bits {
			if v&(1<<uint(i)) != 0 {
				clause[i] = b.Not()
			} else {
				clause[i] = b
			}
		}
		e.addClause(clause...)
	}
}

// ---- gates with constant folding ----

func (e *encoder) and2(a, b sat.Lit) sat.Lit {
	switch {
	case e.isFalse(a) || e.isFalse(b):
		return e.falseLit()
	case e.isTrue(a):
		return b
	case e.isTrue(b):
		return a
	case a == b:
		return a
	case a == b.Not():
		return e.falseLit()
	}
	x := e.fresh()
	e.addClause(x.Not(), a)
	e.addClause(x.Not(), b)
	e.addClause(x, a.Not(), b.Not())
	return x
}

func (e *encoder) or2(a, b sat.Lit) sat.Lit {
	return e.and2(a.Not(), b.Not()).Not()
}

func (e *encoder) xor2(a, b sat.Lit) sat.Lit {
	switch {
	case e.isFalse(a):
		return b
	case e.isFalse(b):
		return a
	case e.isTrue(a):
		return b.Not()
	case e.isTrue(b):
		return a.Not()
	case a == b:
		return e.falseLit()
	case a == b.Not():
		return e.trueLit
	}
	x := e.fresh()
	e.addClause(x.Not(), a, b)
	e.addClause(x.Not(), a.Not(), b.Not())
	e.addClause(x, a, b.Not())
	e.addClause(x, a.Not(), b)
	return x
}

func (e *encoder) xnor2(a, b sat.Lit) sat.Lit { return e.xor2(a, b).Not() }

// mux is sel ? a : b.
func (e *encoder) mux(sel, a, b sat.Lit) sat.Lit {
	switch {
	case e.isTrue(sel):
		return a
	case e.isFalse(sel):
		return b
	case a == b:
		return a
	}
	x := e.fresh()
	e.addClause(sel.Not(), a.Not(), x)
	e.addClause(sel.Not(), a, x.Not())
	e.addClause(sel, b.Not(), x)
	e.addClause(sel, b, x.Not())
	return x
}

func (e *encoder) andN(lits []sat.Lit) sat.Lit {
	out := e.trueLit
	for _, l := range lits {
		out = e.and2(out, l)
	}
	return out
}

func (e *encoder) orN(lits []sat.Lit) sat.Lit {
	out := e.falseLit()
	for _, l := range lits {
		out = e.or2(out, l)
	}
	return out
}

// ---- word-level circuits ----

// constBits encodes an unsigned pattern into width literals.
func (e *encoder) constBits(pattern uint64, width int) []sat.Lit {
	bits := make([]sat.Lit, width)
	for i := range bits {
		if pattern&(1<<uint(i)) != 0 {
			bits[i] = e.trueLit
		} else {
			bits[i] = e.falseLit()
		}
	}
	return bits
}

// addBits is a ripple-carry adder with carry-in; the result wraps at the
// operand width.
func (e *encoder) addBits(a, b []sat.Lit, carryIn sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	c := carryIn
	for i := range a {
		axb := e.xor2(a[i], b[i])
		out[i] = e.xor2(axb, c)
		c = e.or2(e.and2(a[i], b[i]), e.and2(axb, c))
	}
	return out
}

func notAll(bits []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(bits))
	for i, b := range bits {
		out[i] = b.Not()
	}
	return out
}

// subBits is a - b via a + ~b + 1.
func (e *encoder) subBits(a, b []sat.Lit) []sat.Lit {
	return e.addBits(a, notAll(b), e.trueLit)
}

// eqBits is bitwise equality (empty vectors are equal).
func (e *encoder) eqBits(a, b []sat.Lit) sat.Lit {
	eq := e.trueLit
	for i := range a {
		eq = e.and2(eq, e.xnor2(a[i], b[i]))
	}
	return eq
}

// cmpUnsigned returns (a > b, a >= b) for unsigned vectors.
func (e *encoder) cmpUnsigned(a, b []sat.Lit) (gt, ge sat.Lit) {
	gt = e.falseLit()
	eq := e.trueLit
	for i := len(a) - 1; i >= 0; i-- {
		gt = e.or2(gt, e.andN([]sat.Lit{eq, a[i], b[i].Not()}))
		eq = e.and2(eq, e.xnor2(a[i], b[i]))
	}
	return gt, e.or2(gt, eq)
}

// cmpSigned returns (a > b, a >= b) for two's-complement vectors, by
// flipping the sign bits and comparing unsigned.
func (e *encoder) cmpSigned(a, b []sat.Lit) (gt, ge sat.Lit) {
	fa := append([]sat.Lit(nil), a...)
	fb := append([]sat.Lit(nil), b...)
	fa[len(fa)-1] = fa[len(fa)-1].Not()
	fb[len(fb)-1] = fb[len(fb)-1].Not()
	return e.cmpUnsigned(fa, fb)
}

// popcount sums the set bits into an Int-width vector.
func (e *encoder) popcount(bits []sat.Lit) []sat.Lit {
	w := int(e.u.IntWidth())
	total := e.constBits(0, w)
	one := make([]sat.Lit, w)
	for _, b := range bits {
		for i := range one {
			one[i] = e.falseLit()
		}
		one[0] = b
		total = e.addBits(total, one, e.falseLit())
	}
	return total
}

// pidEq tests a PID vector against a constant PID.
func (e *encoder) pidEq(pbits []sat.Lit, pid int) sat.Lit {
	return e.eqBits(pbits, e.constBits(uint64(pid), len(pbits)))
}

// valueBits encodes a constant value.
func (e *encoder) valueBits(v expr.Value) ([]sat.Lit, error) {
	switch v.Type().Kind {
	case expr.KindBool:
		if v.Bool() {
			return []sat.Lit{e.trueLit}, nil
		}
		return []sat.Lit{e.falseLit()}, nil
	case expr.KindInt:
		w := int(e.u.IntWidth())
		mask := uint64(1)<<uint(w) - 1
		return e.constBits(uint64(v.Int())&mask, w), nil
	case expr.KindPID:
		if v.PID() < 0 || v.PID() >= e.u.NumCaches() {
			return nil, fmt.Errorf("smt: PID constant %s out of range for %d caches", v, e.u.NumCaches())
		}
		return e.constBits(uint64(v.PID()), bitsFor(e.u.NumCaches())), nil
	case expr.KindSet:
		if v.Set()&^e.u.SetMask() != 0 {
			return nil, fmt.Errorf("smt: set constant %s exceeds universe", v)
		}
		return e.constBits(v.Set(), e.u.NumCaches()), nil
	case expr.KindEnum:
		return e.constBits(uint64(v.EnumOrd()), bitsFor(len(v.Type().Enum.Values))), nil
	}
	return nil, fmt.Errorf("smt: cannot encode value %s", v)
}

// encode translates an expression to its bit vector, caching shared
// subtrees by node identity.
func (e *encoder) encode(x expr.Expr) ([]sat.Lit, error) {
	if bits, ok := e.cache[x]; ok {
		return bits, nil
	}
	bits, err := e.encode1(x)
	if err != nil {
		return nil, err
	}
	e.cache[x] = bits
	return bits, nil
}

func (e *encoder) encode1(x expr.Expr) ([]sat.Lit, error) {
	switch n := x.(type) {
	case *expr.Var:
		ev, ok := e.vars[n.Name]
		if !ok {
			return nil, fmt.Errorf("smt: free variable %s not declared", n.Name)
		}
		if ev.t != n.VT {
			return nil, fmt.Errorf("smt: variable %s used at type %s, declared %s", n.Name, n.VT, ev.t)
		}
		return ev.bits, nil
	case *expr.Const:
		return e.valueBits(n.Val)
	case *expr.Apply:
		return e.encodeApply(n)
	}
	return nil, fmt.Errorf("smt: unknown expression node %T", x)
}

func (e *encoder) encodeApply(a *expr.Apply) ([]sat.Lit, error) {
	// Arity-0 symbols are constants of the universe: evaluate them once.
	if a.Fn.Arity() == 0 {
		return e.valueBits(a.Fn.Apply(e.u, nil))
	}
	args := make([][]sat.Lit, len(a.Args))
	for i, arg := range a.Args {
		bits, err := e.encode(arg)
		if err != nil {
			return nil, err
		}
		args[i] = bits
	}
	one := func(l sat.Lit) []sat.Lit { return []sat.Lit{l} }
	switch a.Fn.Name {
	case "add":
		return e.addBits(args[0], args[1], e.falseLit()), nil
	case "sub":
		return e.subBits(args[0], args[1]), nil
	case "inc":
		return e.addBits(args[0], e.constBits(1, len(args[0])), e.falseLit()), nil
	case "dec":
		return e.subBits(args[0], e.constBits(1, len(args[0]))), nil
	case "and":
		return one(e.and2(args[0][0], args[1][0])), nil
	case "or":
		return one(e.or2(args[0][0], args[1][0])), nil
	case "not":
		return one(args[0][0].Not()), nil
	case "iszero":
		return one(e.orN(args[0]).Not()), nil
	case "ge":
		_, ge := e.cmpSigned(args[0], args[1])
		return one(ge), nil
	case "gt":
		gt, _ := e.cmpSigned(args[0], args[1])
		return one(gt), nil
	case "equals":
		return one(e.eqBits(args[0], args[1])), nil
	case "ite":
		sel := args[0][0]
		out := make([]sat.Lit, len(args[1]))
		for i := range out {
			out[i] = e.mux(sel, args[1][i], args[2][i])
		}
		return out, nil
	case "setunion":
		out := make([]sat.Lit, len(args[0]))
		for i := range out {
			out[i] = e.or2(args[0][i], args[1][i])
		}
		return out, nil
	case "setinter":
		out := make([]sat.Lit, len(args[0]))
		for i := range out {
			out[i] = e.and2(args[0][i], args[1][i])
		}
		return out, nil
	case "setminus":
		out := make([]sat.Lit, len(args[0]))
		for i := range out {
			out[i] = e.and2(args[0][i], args[1][i].Not())
		}
		return out, nil
	case "setof":
		out := make([]sat.Lit, e.u.NumCaches())
		for i := range out {
			out[i] = e.pidEq(args[0], i)
		}
		return out, nil
	case "setadd":
		out := make([]sat.Lit, len(args[0]))
		for i := range out {
			out[i] = e.or2(args[0][i], e.pidEq(args[1], i))
		}
		return out, nil
	case "setcontains":
		hit := e.falseLit()
		for i, sbit := range args[0] {
			hit = e.or2(hit, e.and2(sbit, e.pidEq(args[1], i)))
		}
		return one(hit), nil
	case "setsize":
		return e.popcount(args[0]), nil
	}
	return nil, fmt.Errorf("smt: function %s is outside the encodable fragment", a.Fn.Name)
}

// valuePattern is patternValue's inverse: the little-endian bit pattern a
// typed value occupies in its variable's bit vector. The second result is
// false for values whose kind does not match the target type (such hints
// are ignored rather than mis-applied).
func (e *encoder) valuePattern(t expr.Type, v expr.Value) (uint64, bool) {
	if v.Type().Kind != t.Kind {
		return 0, false
	}
	switch t.Kind {
	case expr.KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case expr.KindInt:
		w := e.u.IntWidth()
		mask := uint64(1)<<w - 1
		return uint64(v.Int()) & mask, true
	case expr.KindPID:
		return uint64(v.PID()), true
	case expr.KindSet:
		return v.Set(), true
	case expr.KindEnum:
		return uint64(v.EnumOrd()), true
	}
	return 0, false
}

// patternValue turns a little-endian bit pattern into a typed value.
func (e *encoder) patternValue(t expr.Type, pattern uint64) expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return expr.BoolVal(pattern != 0)
	case expr.KindInt:
		w := e.u.IntWidth()
		val := int64(pattern)
		if pattern&(1<<(w-1)) != 0 {
			val -= int64(1) << w
		}
		return expr.IntVal(e.u, val)
	case expr.KindPID:
		return expr.PIDVal(int(pattern))
	case expr.KindSet:
		return expr.SetVal(pattern)
	case expr.KindEnum:
		return expr.EnumVal(t.Enum, int(pattern))
	}
	panic("smt: patternValue on invalid type")
}
